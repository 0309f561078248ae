// Wire format for WAL shipping (DESIGN.md §12.1).
//
// A Shipment is what the leader puts on a ReplicationLink: the leader's
// current epoch plus zero or more whole committed statement groups, each
// group the exact framed WAL bytes (`len | crc | payload` records) the
// leader wrote locally. Shipping frames verbatim is the point — the
// follower replays the same bytes local crash recovery would, so the two
// paths cannot diverge, and every record arrives CRC-protected twice (the
// WAL frame inside the shipment envelope).
//
// An empty-groups Shipment is a valid heartbeat/epoch announcement: the
// promotion path uses it to fence a resurrected stale leader before any
// data moves.
//
// A Shipment owns none of its group bytes; each group is a view. On the
// leader the views point into the ship-log copy ControlPlane::pump() holds
// until every delivery of that pump returns. After decode_shipment they
// point into the wire bytes, so the caller keeps the wire alive until the
// apply is done (Follower::handle_shipment applies before it returns).
// Encoding copies each group once, into the wire; nothing else copies.
//
// The Ack carries the follower's epoch and durable LSN after the apply. It
// is returned in-process and never crosses a link, so it has no wire form.
// `accepted == false` distinguishes two refusals the leader treats very
// differently: an epoch fence (the follower has seen a newer leader — stop
// immediately) and an LSN gap (the follower missed history — catch it up
// from the WAL cursor or re-bootstrap).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rocks::replication {

struct Shipment {
  std::uint64_t epoch = 0;
  /// Framed WAL bytes of whole committed statements, oldest first. Views:
  /// see the lifetime rule above.
  std::vector<std::string_view> groups;
};

struct Ack {
  std::uint64_t epoch = 0;     // the follower's epoch after the exchange
  std::uint64_t last_lsn = 0;  // the follower's durable position
  bool accepted = false;
  std::string error;  // "" when accepted; fence/gap/corruption otherwise
};

[[nodiscard]] std::string encode_shipment(const Shipment& shipment);
/// Throws ParseError on a truncated or corrupt envelope (the per-record WAL
/// CRCs are checked later, by Database::replicate_apply). The groups are
/// views into `bytes`.
[[nodiscard]] Shipment decode_shipment(std::string_view bytes);

}  // namespace rocks::replication
