#!/usr/bin/env python3
"""Reachability gate: every src/ module must be linked into a shipped binary.

Usage:

    python3 ci/check_unreached_modules.py BUILD_DIR BINARY...

BUILD_DIR is a CMake build tree of this repository. Its
compile_commands.json names the object file of every src/**/*.cc source
of the checkout it was configured from, so objects left behind by deleted
sources are never read. Each BINARY is a shipped executable: the
examples, the paper benches, perfbench and perfbench_selftest. Test
binaries must not be passed; a module that only its own tests reach is
what this gate exists to find.

For every src/ object the gate collects its strong text symbols in the
crowdfusion namespace (`nm` type T). A static-library member is linked
only when a binary needs one of its symbols, and then all of them come
along, so an object none of whose symbols appears in any binary is dead
code. The gate names each such object and exits 1. Objects that define no
strong crowdfusion text symbol cannot be judged this way and are listed
for information. There is no allowlist.

Exits 0 when every judged object is reached, 1 when one is not, 2 on a
usage or tool error.
"""

import json
import os
import re
import shlex
import subprocess
import sys

# Mangled nested names rooted at ::crowdfusion, with optional cv- and
# ref-qualifiers on member functions (_ZN, _ZNK, _ZNKR, ...).
CROWDFUSION_SYMBOL = re.compile(r"^_ZN[rVKRO]*11crowdfusion")


def defined_symbols(path):
    """(name, nm type) of every defined symbol in an object or binary."""
    done = subprocess.run(["nm", "--defined-only", "-P", path],
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: nm failed on {path}: {done.stderr.strip()}")
    symbols = []
    for line in done.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 2:
            symbols.append((fields[0], fields[1]))
    return symbols


def object_path(entry):
    """The object file a compile_commands.json entry writes."""
    output = entry.get("output")
    if output is None:
        args = entry.get("arguments") or shlex.split(entry["command"])
        output = args[args.index("-o") + 1]
    return os.path.normpath(os.path.join(entry["directory"], output))


def source_root(build_dir):
    """The checkout the build tree was configured from (its CMake cache)."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    try:
        with open(cache) as handle:
            for line in handle:
                if line.startswith("crowdfusion_SOURCE_DIR:"):
                    return line.split("=", 1)[1].strip()
    except OSError as error:
        sys.exit(f"error: cannot read {cache}: {error}")
    sys.exit(f"error: {cache} names no crowdfusion_SOURCE_DIR")


def src_objects(build_dir):
    """[(source relative to the checkout, object path)] for src/**/*.cc."""
    root = source_root(build_dir)
    src = os.path.join(root, "src") + os.sep
    database = os.path.join(build_dir, "compile_commands.json")
    try:
        with open(database) as handle:
            entries = json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit(f"error: cannot read {database}: {error}")
    objects = {}
    for entry in entries:
        source = os.path.normpath(
            os.path.join(entry["directory"], entry["file"]))
        if source.startswith(src) and source.endswith(".cc"):
            objects[os.path.relpath(source, root)] = object_path(entry)
    return sorted(objects.items())


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build_dir, binaries = argv[1], argv[2:]
    for binary in binaries:
        if not os.path.isfile(binary):
            print(f"error: binary not found: {binary}", file=sys.stderr)
            return 2

    linked = set()
    for binary in binaries:
        linked.update(name for name, _ in defined_symbols(binary))

    objects = src_objects(build_dir)
    if not objects:
        print(f"error: no src/ objects in {build_dir}", file=sys.stderr)
        return 2
    unreached, unjudged = [], []
    for source, obj in objects:
        if not os.path.isfile(obj):
            print(f"error: object not built: {obj} ({source})",
                  file=sys.stderr)
            return 2
        strong = {name for name, kind in defined_symbols(obj)
                  if kind == "T" and CROWDFUSION_SYMBOL.match(name)}
        if not strong:
            unjudged.append(source)
        elif not strong & linked:
            unreached.append((source, obj, len(strong)))

    for source in unjudged:
        print(f"note: {source} defines no strong crowdfusion text symbol; "
              "not judged")
    for source, obj, count in unreached:
        print(f"UNREACHED: {source} ({obj}): none of its {count} strong "
              f"crowdfusion text symbols is linked into any of the "
              f"{len(binaries)} binaries")
    judged = len(objects) - len(unjudged)
    if unreached:
        print(f"FAIL: {len(unreached)} of {judged} judged src/ objects "
              "are linked into no shipped binary; delete them or use them")
        return 1
    print(f"OK: all {judged} judged src/ objects are linked into at least "
          f"one of the {len(binaries)} binaries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
