#include "obs/json.h"

#include "util/format.h"

namespace tgi::obs {

std::string json_microseconds(util::Seconds seconds) {
  return util::fixed(seconds.value() * 1e6, 3);
}

}  // namespace tgi::obs
