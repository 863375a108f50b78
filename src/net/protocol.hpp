// The pragmalistd wire protocol: a RESP-like framed format (REdis
// Serialization Protocol subset) chosen because it is trivially
// incremental -- every element is length- or CRLF-delimited, so a
// parser fed arbitrary byte slices either has a complete frame or
// knows it must wait, and pipelined frames fall out for free.
//
// Requests (client -> server) are arrays of bulk strings:
//
//   *<argc>\r\n  then argc x ( $<len>\r\n<len bytes>\r\n )
//
//   *2\r\n$3\r\nGET\r\n$2\r\n42\r\n        GET 42
//
// Replies (server -> client) are one of:
//
//   +<text>\r\n        simple string  (+PONG)
//   -<message>\r\n     error          (-ERR unknown command)
//   :<integer>\r\n     integer        (:1 = op succeeded / key present)
//   $<len>\r\n<bytes>\r\n  bulk string (INFO body)
//   *<n>\r\n then n x :<integer>\r\n   integer array (SCAN result)
//
// Commands (case-insensitive; keys are decimal longs):
//   PING              -> +PONG
//   SET <key>         -> :1 inserted, :0 already present   (ISetHandle::add)
//   GET <key>         -> :1 present, :0 absent             (contains)
//   DEL <key>         -> :1 removed, :0 absent             (remove)
//   SCAN <from> <n>   -> integer array of up to n live keys >= from,
//                        ascending (ascend; n clamped to kMaxScanCount)
//   INFO              -> bulk string of "key:value" lines (server ledger)
//
// Hard limits (violations are protocol errors; the server replies -ERR
// and closes, since a malformed stream cannot be resynchronized):
// kMaxArgs args per frame, kMaxBulk bytes per arg, kMaxFrame bytes per
// frame. All limits are checked on the *declared* lengths before any
// payload is buffered, so a hostile "$999999999" header cannot balloon
// memory, and the parser indexes nothing it has not bounds-checked --
// malformed input yields kError, never UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pragmalist::net::protocol {

inline constexpr std::size_t kMaxArgs = 8;
inline constexpr std::size_t kMaxBulk = 4096;
inline constexpr std::size_t kMaxFrame = 16 * 1024;
/// SCAN page ceiling: a single request cannot ask the server to walk
/// (and buffer) more than this many keys.
inline constexpr long kMaxScanCount = 4096;

enum class ParseStatus {
  kNeedMore,  // no complete frame buffered yet; feed more bytes
  kFrame,     // one frame extracted and consumed
  kError,     // stream is malformed; sticky until reset()
};

/// Strict decimal-long parse (full consumption, optional leading '-').
/// Returns false on empty/trailing garbage/overflow -- "12x" and ""
/// must be command errors, never key 12 or key 0.
bool parse_key(std::string_view s, long* out);

// --- encoders --------------------------------------------------------

/// Append one request frame ("*argc" + bulk args) to `out`.
void encode_request(std::string& out, const std::vector<std::string>& args);

void encode_simple(std::string& out, std::string_view text);
void encode_error(std::string& out, std::string_view message);
void encode_integer(std::string& out, long value);
void encode_bulk(std::string& out, std::string_view bytes);
void encode_int_array(std::string& out, const std::vector<long>& values);

// --- request parser (server side) ------------------------------------

/// Incremental request-frame parser. feed() appends raw bytes; next()
/// extracts at most one complete frame per call (call until kNeedMore
/// to drain a pipelined burst). After kError the stream is poisoned:
/// error() describes why and next() keeps returning kError until
/// reset().
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_frame = kMaxFrame)
      : max_frame_(max_frame) {}

  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  void feed(std::string_view bytes) { buf_.append(bytes); }

  /// On kFrame, overwrites *args with the frame's arguments, reusing
  /// the vector's capacity and its strings' buffers; on kNeedMore and
  /// kError, *args is left as it was.
  ParseStatus next(std::vector<std::string>* args);

  const std::string& error() const { return err_; }

  /// Bytes buffered but not yet consumed by a complete frame.
  std::size_t buffered() const { return buf_.size() - pos_; }

  void reset() {
    buf_.clear();
    pos_ = 0;
    err_.clear();
    failed_ = false;
  }

 private:
  ParseStatus fail(const std::string& why) {
    failed_ = true;
    err_ = why;
    return ParseStatus::kError;
  }

  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::size_t max_frame_;
  std::string err_;
  bool failed_ = false;
};

// --- reply parser (client side) --------------------------------------

struct Reply {
  enum class Type { kSimple, kError, kInteger, kBulk, kIntArray };
  Type type = Type::kSimple;
  std::string text;         // simple / error / bulk payload
  long integer = 0;         // integer reply
  std::vector<long> ints;   // integer-array reply (SCAN)
};

/// Incremental reply parser, mirroring FrameParser. Array replies are
/// restricted to integer elements (the only array this protocol
/// emits); anything else is a stream error.
class ReplyParser {
 public:
  explicit ReplyParser(std::size_t max_frame = kMaxFrame)
      : max_frame_(max_frame) {}

  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  void feed(std::string_view bytes) { buf_.append(bytes); }

  ParseStatus next(Reply* reply);

  const std::string& error() const { return err_; }
  std::size_t buffered() const { return buf_.size() - pos_; }

  void reset() {
    buf_.clear();
    pos_ = 0;
    err_.clear();
    failed_ = false;
  }

 private:
  ParseStatus fail(const std::string& why) {
    failed_ = true;
    err_ = why;
    return ParseStatus::kError;
  }

  std::string buf_;
  std::size_t pos_ = 0;
  std::size_t max_frame_;
  std::string err_;
  bool failed_ = false;
};

}  // namespace pragmalist::net::protocol
