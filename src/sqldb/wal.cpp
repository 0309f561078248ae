#include "sqldb/wal.hpp"

#include "support/binary.hpp"
#include "support/crashpoint.hpp"
#include "support/crc.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::sqldb {

using support::BinaryReader;
using support::BinaryWriter;

void encode_value(BinaryWriter& out, const Value& value) {
  switch (value.type()) {
    case Type::kNull: out.u8(0); return;
    case Type::kInt: out.u8(1); out.i64(value.as_int()); return;
    case Type::kReal: out.u8(2); out.f64(value.as_real()); return;
    case Type::kText: out.u8(3); out.str(value.as_text()); return;
  }
}

Value decode_value(BinaryReader& in) {
  switch (in.u8()) {
    case 0: return Value::null();
    case 1: return Value(in.i64());
    case 2: return Value(in.f64());
    case 3: return Value(std::string(in.str()));
    default: throw ParseError("wal: unknown value tag");
  }
}

void encode_column(BinaryWriter& out, const ColumnDef& column) {
  out.str(column.name);
  out.u8(static_cast<std::uint8_t>(column.type));
  out.u8(column.primary_key ? 1 : 0);
  out.u8(column.auto_increment ? 1 : 0);
}

ColumnDef decode_column(BinaryReader& in) {
  ColumnDef column;
  column.name = std::string(in.str());
  column.type = static_cast<Type>(in.u8());
  column.primary_key = in.u8() != 0;
  column.auto_increment = in.u8() != 0;
  return column;
}

namespace {

std::string encode_payload(const WalRecord& record) {
  BinaryWriter out;
  out.u64(record.lsn);
  out.u8(static_cast<std::uint8_t>(record.op));
  out.u8(record.commit ? 1 : 0);
  out.str(record.table);
  switch (record.op) {
    case WalOp::kInsert:
      out.u32(static_cast<std::uint32_t>(record.row.size()));
      for (const Value& value : record.row) encode_value(out, value);
      break;
    case WalOp::kUpdate:
      out.u64(record.row_index);
      out.u32(static_cast<std::uint32_t>(record.cells.size()));
      for (const auto& [column, value] : record.cells) {
        out.u32(static_cast<std::uint32_t>(column));
        encode_value(out, value);
      }
      break;
    case WalOp::kDelete:
      out.u32(static_cast<std::uint32_t>(record.row_indexes.size()));
      for (const std::size_t index : record.row_indexes) out.u64(index);
      break;
    case WalOp::kCreateTable:
      out.u32(static_cast<std::uint32_t>(record.schema.size()));
      for (const ColumnDef& column : record.schema) encode_column(out, column);
      break;
    case WalOp::kDropTable:
      break;
    case WalOp::kCreateIndex:
      out.str(record.column);
      break;
  }
  return out.take();
}

WalRecord decode_payload(std::string_view payload) {
  BinaryReader in(payload);
  WalRecord record;
  record.lsn = in.u64();
  const std::uint8_t op = in.u8();
  if (op < 1 || op > 6) throw ParseError("wal: unknown op");
  record.op = static_cast<WalOp>(op);
  record.commit = in.u8() != 0;
  record.table = std::string(in.str());
  switch (record.op) {
    case WalOp::kInsert: {
      const std::uint32_t n = in.u32();
      record.row.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) record.row.push_back(decode_value(in));
      break;
    }
    case WalOp::kUpdate: {
      record.row_index = static_cast<std::size_t>(in.u64());
      const std::uint32_t n = in.u32();
      record.cells.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::size_t column = in.u32();
        record.cells.emplace_back(column, decode_value(in));
      }
      break;
    }
    case WalOp::kDelete: {
      const std::uint32_t n = in.u32();
      record.row_indexes.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i)
        record.row_indexes.push_back(static_cast<std::size_t>(in.u64()));
      break;
    }
    case WalOp::kCreateTable: {
      const std::uint32_t n = in.u32();
      record.schema.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) record.schema.push_back(decode_column(in));
      break;
    }
    case WalOp::kDropTable:
      break;
    case WalOp::kCreateIndex:
      record.column = std::string(in.str());
      break;
  }
  if (!in.done()) throw ParseError("wal: trailing bytes in record payload");
  return record;
}

}  // namespace

std::string encode_wal_record(const WalRecord& record) {
  const std::string payload = encode_payload(record);
  BinaryWriter framed;
  framed.u32(static_cast<std::uint32_t>(payload.size()));
  framed.u32(support::crc32(payload));
  std::string out = framed.take();
  out += payload;
  return out;
}

WalReadResult read_wal(std::string_view bytes) {
  WalReadResult result;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    // Frame header: length + CRC. Anything short of a full, checksummed
    // record is a torn tail — expected after a crash, never fatal.
    if (bytes.size() - pos < 8) break;
    BinaryReader header(bytes.substr(pos, 8));
    const std::uint32_t length = header.u32();
    const std::uint32_t crc = header.u32();
    if (bytes.size() - pos - 8 < length) break;
    const std::string_view payload = bytes.substr(pos + 8, length);
    if (support::crc32(payload) != crc) break;
    try {
      result.records.push_back(decode_payload(payload));
    } catch (const ParseError&) {
      break;  // checksummed but undecodable: treat like corruption
    }
    pos += 8 + length;
    result.ends.push_back(pos);
  }
  result.valid_bytes = pos;
  result.torn = pos != bytes.size();
  return result;
}

std::vector<WalGroup> wal_groups_after(std::string_view bytes, std::uint64_t floor) {
  const WalReadResult wal = read_wal(bytes);
  std::vector<WalGroup> out;
  std::size_t first = 0;  // index of the open group's first record
  for (std::size_t i = 0; i < wal.records.size(); ++i) {
    if (!wal.records[i].commit) continue;
    if (wal.records[i].lsn > floor) {
      const std::size_t start = wal.frame_start(first);
      out.push_back(WalGroup{wal.records[first].lsn, wal.records[i].lsn,
                             std::string(bytes.substr(start, wal.ends[i] - start))});
    }
    first = i + 1;
  }
  // An unterminated trailing group was never acknowledged: drop it, exactly
  // as open_durable's replay does.
  return out;
}

void WalWriter::append(const WalRecord& record) {
  append_frame(record.lsn, encode_wal_record(record));
}

void WalWriter::append_frame(std::uint64_t lsn, std::string_view frame) {
  if (pending_.empty()) pending_first_lsn_ = lsn;
  pending_last_lsn_ = lsn;
  pending_ += frame;
  ++records_appended_;
}

void WalWriter::commit() {
  statement_start_ = pending_.size();
  ++pending_statements_;
  if (pending_statements_ >= group_commit_) flush();
}

void WalWriter::flush() {
  if (pending_.empty()) {
    pending_statements_ = 0;
    return;
  }
  support::crash_point("wal.flush.before");
  auto& points = support::CrashPoints::instance();
  if (points.fires("wal.flush.torn")) {
    // Simulated power cut mid-append: half the buffer reaches the disk.
    fs_->append_file(path_, std::string_view(pending_).substr(0, pending_.size() / 2 + 1));
    points.trip("wal.flush.torn");
  }
  try {
    fs_->append_file(path_, pending_);
  } catch (const Error& error) {
    // The disk refused the bytes. Surface the exact LSN range that is NOT
    // durable — callers must not acknowledge anything in it — and keep the
    // buffer intact so the next flush retries the same records.
    ++flush_failures_;
    throw IoError(strings::cat("wal flush failed; LSN range [", pending_first_lsn_, ", ",
                               pending_last_lsn_, "] not durable: ", error.what()));
  }
  bytes_written_ += pending_.size();
  ++flushes_;
  // Between the append above and the clear below the record is durable but
  // the statement that triggered it has not returned: a crash here loses
  // nothing (the process dies holding a buffer that is already on disk).
  support::crash_point("wal.flush.after");
  pending_.clear();
  statement_start_ = pending_statements_ = 0;
  pending_first_lsn_ = pending_last_lsn_ = 0;
}

void WalWriter::reset() {
  pending_.clear();
  statement_start_ = pending_statements_ = 0;
  pending_first_lsn_ = pending_last_lsn_ = 0;
  fs_->write_file(path_, "");
}

void WalWriter::reset_through(std::uint64_t floor) {
  const std::string bytes = fs_->is_file(path_) ? fs_->read_file(path_) : std::string();
  // LSNs ascend through the file, so what survives is the byte suffix from
  // the first record above the floor to the end of the valid prefix.
  const WalReadResult wal = read_wal(bytes);
  std::size_t first = 0;
  while (first < wal.records.size() && wal.records[first].lsn <= floor) ++first;
  const std::size_t start = wal.frame_start(first);
  if (start == 0 && wal.valid_bytes == bytes.size()) return;  // nothing absorbed
  const std::string tmp = path_ + ".tmp";
  fs_->write_file(tmp, bytes.substr(start, wal.valid_bytes - start));
  fs_->rename(tmp, path_);
}

}  // namespace rocks::sqldb
