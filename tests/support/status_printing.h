#ifndef CROWDFUSION_TESTS_SUPPORT_STATUS_PRINTING_H_
#define CROWDFUSION_TESTS_SUPPORT_STATUS_PRINTING_H_

#include <ostream>

#include "common/status.h"

namespace crowdfusion::common {

/// Streams Status::ToString(): lets gtest print a Status value and lets an
/// assertion append one (`ASSERT_TRUE(r.ok()) << r.status()`).
std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_TESTS_SUPPORT_STATUS_PRINTING_H_
