#include "common/clock.h"

#include <chrono>
#include <thread>

namespace crowdfusion::common {

namespace {

class RealClock : public Clock {
 public:
  double NowSeconds() override {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void SleepSeconds(double seconds) override {
    // A year stands for forever: sleep_for is undefined past ~292 years.
    if (seconds > 3.2e7) seconds = 3.2e7;
    if (!(seconds > 0)) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
};

}  // namespace

Clock* Clock::Real() {
  static RealClock* const kInstance = new RealClock();
  return kInstance;
}

}  // namespace crowdfusion::common
