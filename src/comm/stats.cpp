#include "comm/stats.hpp"

#include "util/string_util.hpp"

namespace pyhpc::comm {

std::string CommStats::to_string() const {
  std::string out = util::cat(
      "p2p: ", p2p_messages_sent, " msgs / ", p2p_bytes_sent, " B sent, ",
      p2p_messages_received, " msgs / ", p2p_bytes_received,
      " B recvd; coll: ", coll_messages_sent, " msgs / ", coll_bytes_sent,
      " B sent across ", collectives, " collectives");
  if (retries != 0 || timeouts != 0 || drops_detected != 0 ||
      corruption_detected != 0) {
    out += util::cat("; resilience: ", retries, " retries, ", timeouts,
                     " timeouts, ", drops_detected, " drops detected, ",
                     corruption_detected, " corruptions detected");
  }
  if (mailbox_highwater_bytes != 0) {
    out += util::cat("; mailbox highwater: ", mailbox_highwater_bytes, " B");
  }
  if (bytes_copied != 0 || zero_copy_bytes != 0) {
    out += util::cat("; transport: ", bytes_copied, " B copied, ",
                     zero_copy_bytes, " B zero-copy in ", zero_copy_messages,
                     " msgs, arena ", arena_hits, " hits / ", arena_misses,
                     " misses");
  }
  return out;
}

}  // namespace pyhpc::comm
