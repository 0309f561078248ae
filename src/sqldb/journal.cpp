#include "sqldb/journal.hpp"

#include "support/strings.hpp"

namespace rocks::sqldb {

std::uint64_t ChangeJournal::record(std::string_view channel, ChangeOp op, Value pk) {
  records_written_.fetch_add(1, std::memory_order_relaxed);
  // No row identity: the delta cannot be applied by key, so poison the
  // range instead of logging an unusable record.
  if (pk.is_null()) return log_.poison(strings::to_lower(channel));
  return log_.append(strings::to_lower(channel), ChangeRecord{op, std::move(pk), 0});
}

void ChangeJournal::truncate(std::string_view channel) {
  log_.poison(strings::to_lower(channel));
}

void ChangeJournal::touch(std::string_view channel) {
  truncate(channel);
  notify(channel);
}

std::uint64_t ChangeJournal::revision(std::string_view channel) const {
  return log_.seq(strings::to_lower(channel));
}

std::uint64_t ChangeJournal::floor(std::string_view channel) const {
  return log_.floor(strings::to_lower(channel));
}

void ChangeJournal::restore_channel(std::string_view channel, std::uint64_t revision) {
  log_.restore(strings::to_lower(channel), revision);
}

support::ChannelDelta<ChangeRecord> ChangeJournal::since(std::string_view channel,
                                                         std::uint64_t revision) const {
  return log_.since(strings::to_lower(channel), revision);
}

std::size_t ChangeJournal::subscribe(std::string_view channel, Callback callback) {
  if (channel == kAllChannels) return log_.subscribe_all(std::move(callback));
  return log_.subscribe(strings::to_lower(channel), std::move(callback));
}

void ChangeJournal::notify(std::string_view channel) {
  const std::string lowered = strings::to_lower(channel);
  log_.dispatch(lowered, std::string_view(lowered), log_.seq(lowered));
}

}  // namespace rocks::sqldb
