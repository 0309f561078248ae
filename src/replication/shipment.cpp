#include "replication/shipment.hpp"

#include "support/binary.hpp"

namespace rocks::replication {

std::string encode_shipment(const Shipment& shipment) {
  support::BinaryWriter out;
  out.u64(shipment.epoch);
  out.u32(static_cast<std::uint32_t>(shipment.groups.size()));
  for (const std::string_view group : shipment.groups) out.str(group);
  return out.take();
}

Shipment decode_shipment(std::string_view bytes) {
  support::BinaryReader in(bytes);
  Shipment shipment;
  shipment.epoch = in.u64();
  const std::uint32_t count = in.u32();
  shipment.groups.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) shipment.groups.push_back(in.str());
  return shipment;
}

}  // namespace rocks::replication
