#include "support/status_printing.h"

namespace crowdfusion::common {

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace crowdfusion::common
