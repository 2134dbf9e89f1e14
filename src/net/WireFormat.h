//===- net/WireFormat.h - llstard binary wire protocol ----------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `llstard` wire protocol, as pure encode/decode functions with no
/// socket I/O — every byte of the network surface is unit-testable (and
/// fuzzable) offline, the same way ONC-RPC splits `encode_*_args` /
/// `decode_*_reply` from the transport.
///
/// Layer 1 — record marking (RFC 5531 style). A logical record is carried
/// as one or more fragments, each prefixed by a 4-byte big-endian word:
/// the top bit marks the record's last fragment, the low 31 bits are the
/// fragment length. \ref frameRecord splits a record into fragments;
/// \ref RecordReassembler incrementally reassembles the byte stream back
/// into records, enforcing fragment- and record-size limits so a hostile
/// peer cannot balloon memory.
///
/// Layer 2 — messages. Every record is one message: a fixed 16-byte
/// header (magic, protocol version, opcode, flags, request id) followed
/// by an opcode-specific body. Request ids are chosen by the client and
/// echoed in replies, which is what makes pipelining with out-of-order
/// completion possible. All integers are big-endian; strings are a u32
/// length followed by raw bytes. Decoders are strict: truncated bodies,
/// trailing bytes, and out-of-range enum values all fail cleanly.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_NET_WIREFORMAT_H
#define LLSTAR_NET_WIREFORMAT_H

#include "service/ParseService.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace llstar {
namespace wire {

/// "LLSP" — rejects peers that are not speaking this protocol at all.
constexpr uint32_t Magic = 0x4C4C5350;
/// The protocol version this build speaks. Version negotiation is
/// per-request: a request carrying an unsupported version gets an
/// ErrorReply with code BadVersion whose message names the supported
/// version; the connection stays usable.
constexpr uint16_t ProtocolVersion = 1;

/// Fixed message-header size: magic(4) version(2) opcode(1) flags(1)
/// request-id(8).
constexpr size_t HeaderBytes = 16;

/// Per-fragment size cap (also the cap encoders split at by default).
constexpr size_t DefaultMaxFragmentBytes = 1u << 20;
/// Reassembled-record size cap: bundles can be large, parse inputs too.
constexpr size_t DefaultMaxRecordBytes = 64u << 20;

/// Message opcodes. Replies are the request opcode with the top bit set;
/// ErrorReply answers any request that failed at the protocol level.
enum class Opcode : uint8_t {
  Parse = 1,        ///< parse an input against a loaded bundle
  ParseRecover = 2, ///< same, with error recovery
  LoadBundle = 3,   ///< load grammar text / .llb bytes, keyed by hash
  Stats = 4,        ///< fetch the service metrics JSON
  Drain = 5,        ///< finish in-flight work, then stop accepting
  Edit = 6,         ///< incremental session op: reset / apply edit / close
  ParseReply = 0x81,
  ParseRecoverReply = 0x82,
  LoadBundleReply = 0x83,
  StatsReply = 0x84,
  DrainReply = 0x85,
  EditReply = 0x86,
  ErrorReply = 0xFF,
};

/// Protocol-level error codes carried by ErrorReply.
enum class WireError : uint16_t {
  None = 0,
  BadMagic = 1,
  BadVersion = 2,
  BadOpcode = 3,
  BadBody = 4,           ///< body truncated, trailing bytes, bad enum
  UnknownBundle = 5,     ///< parse referenced an unloaded bundle hash
  DuplicateRequestId = 6,///< id already in flight on this connection
  BadBundle = 7,         ///< LoadBundle bytes failed to load
  Draining = 8,          ///< daemon is draining; no new work
  FrameTooLarge = 9,     ///< fragment/record over the configured cap
  UnknownSession = 10,   ///< Edit referenced a session id with no reset yet
};

const char *wireErrorName(WireError E);

/// Header flag bits (meaning depends on the opcode).
constexpr uint8_t FlagWantTree = 1;         ///< Parse*: render the tree
constexpr uint8_t FlagIncludeDecisions = 1; ///< Stats: per-decision stats

struct MessageHeader {
  uint16_t Version = ProtocolVersion;
  Opcode Op = Opcode::Parse;
  uint8_t Flags = 0;
  uint64_t RequestId = 0;
};

//===----------------------------------------------------------------------===//
// Byte-level primitives
//===----------------------------------------------------------------------===//

void putU8(std::string &Out, uint8_t V);
void putU16(std::string &Out, uint16_t V);
void putU32(std::string &Out, uint32_t V);
void putU64(std::string &Out, uint64_t V);
void putI64(std::string &Out, int64_t V);
void putF64(std::string &Out, double V);
/// u32 length prefix + raw bytes.
void putStr(std::string &Out, std::string_view V);

/// Bounds-checked big-endian reader over one record. Every read returns
/// false instead of walking off the end; a failed reader stays failed.
class ByteReader {
public:
  explicit ByteReader(std::string_view Bytes) : Bytes(Bytes) {}
  /// A reader is a view: constructing one over a temporary string would
  /// dangle the moment the full-expression ends.
  explicit ByteReader(std::string &&) = delete;

  bool u8(uint8_t &V);
  bool u16(uint16_t &V);
  bool u32(uint32_t &V);
  bool u64(uint64_t &V);
  bool i64(int64_t &V);
  bool f64(double &V);
  /// Reads a u32-length-prefixed string. The length is validated against
  /// the remaining bytes, so an oversized prefix fails instead of
  /// allocating.
  bool str(std::string &V);

  size_t remaining() const { return Bytes.size() - Pos; }
  bool done() const { return Pos == Bytes.size(); }
  bool failed() const { return Failed; }

private:
  bool take(size_t N, const char *&P);
  std::string_view Bytes;
  size_t Pos = 0;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Record marking
//===----------------------------------------------------------------------===//

/// Appends \p Record to \p Out as one or more length-prefixed fragments
/// of at most \p MaxFragment bytes each. An empty record becomes a single
/// empty last-fragment.
void frameRecord(std::string &Out, std::string_view Record,
                 size_t MaxFragment = DefaultMaxFragmentBytes);

/// Incremental fragment reassembler: feed() raw socket bytes in whatever
/// chunks they arrive, next() yields complete records. Once an input
/// violates a limit the reassembler latches into the error state — a
/// framing error means the stream position is unrecoverable.
class RecordReassembler {
public:
  explicit RecordReassembler(size_t MaxRecord = DefaultMaxRecordBytes,
                             size_t MaxFragment = DefaultMaxFragmentBytes)
      : MaxRecord(MaxRecord), MaxFragment(MaxFragment) {}

  enum class Status {
    NeedMore, ///< no complete record buffered yet
    Record,   ///< a record was written to the out-parameter
    Error,    ///< framing violation; see error()
  };

  void feed(std::string_view Bytes);
  Status next(std::string &Record);
  const std::string &error() const { return Err; }
  /// Bytes buffered but not yet returned as records.
  size_t bufferedBytes() const { return Buffer.size() - Pos + Partial.size(); }

private:
  Status fail(std::string Message);
  size_t MaxRecord, MaxFragment;
  std::string Buffer;  ///< unconsumed raw input
  size_t Pos = 0;      ///< consumed prefix of Buffer
  std::string Partial; ///< fragments of the in-progress record
  bool Failed = false;
  std::string Err;
};

//===----------------------------------------------------------------------===//
// Message bodies
//===----------------------------------------------------------------------===//

struct ParseArgs {
  /// Content hash of a previously loaded bundle; 0 = the connection's
  /// daemon-wide default (the most recently loaded bundle).
  uint64_t BundleHash = 0;
  /// Per-request deadline in milliseconds (0 = service default).
  uint32_t DeadlineMs = 0;
  bool WantTree = false; ///< carried in the header flags
  std::string StartRule; ///< empty = the grammar's start rule
  std::string Input;
};

/// One structured syntax error (mirrors llstar::Diagnostic).
struct WireDiagnostic {
  uint8_t Severity = 2; ///< DiagSeverity: 0 note, 1 warning, 2 error
  uint32_t Line = 0;
  uint32_t Column = 0;
  std::string Message;
};

/// Mirrors ParseResult field-for-field so over-the-wire results can be
/// compared byte-identically against in-process ParseService output.
struct ParseReply {
  uint8_t Status = 0; ///< llstar::ParseStatus
  int64_t NumTokens = 0;
  int64_t TreeNodes = 0;
  double ParseMillis = 0;
  std::string TreeText;
  std::string DiagText;
  std::vector<WireDiagnostic> Errors;
};

struct LoadBundleReply {
  uint64_t Hash = 0;
  uint8_t Cached = 0; ///< 1 if the daemon already had this content
  std::string Name;
};

//===----------------------------------------------------------------------===//
// Edit: stateful incremental sessions
//===----------------------------------------------------------------------===//

/// Edit actions. Sessions are per-connection, keyed by a client-chosen
/// 32-bit id; Reset creates (or re-creates) the session, Apply mutates
/// it, Close discards it. A connection's sessions die with it.
constexpr uint8_t EditActionReset = 0; ///< (re)initialize with NewText
constexpr uint8_t EditActionApply = 1; ///< replace OldLen bytes at Offset
constexpr uint8_t EditActionClose = 2; ///< discard the session

/// Session mode bits, honored at Reset (session creation) only.
constexpr uint8_t EditModeRecover = 1;  ///< error-recovering parses
/// Use the registered native module when its payload hash matches.
constexpr uint8_t EditModeCompiled = 2;
constexpr uint8_t EditModeArena = 4;    ///< arena parse trees
constexpr uint8_t EditModeNoReuse = 8;  ///< full reparse per edit (baseline)

struct EditArgs {
  uint32_t SessionId = 0;
  uint8_t Action = EditActionReset;
  uint8_t Mode = EditModeRecover;
  /// Bundle for session creation (Reset); 0 = the daemon-wide default.
  uint64_t BundleHash = 0;
  uint64_t Offset = 0; ///< Apply only
  uint64_t OldLen = 0; ///< Apply only
  bool WantTree = false; ///< carried in the header flags
  std::string StartRule; ///< Reset only; empty = the grammar's first rule
  std::string NewText;   ///< Reset: the whole text; Apply: the replacement
};

/// Mirrors incremental::EditOutcome plus the session's rendered state.
struct EditReplyBody {
  /// incremental::EditScriptError as a stable u16; non-zero means the
  /// edit was rejected and the session is unchanged.
  uint16_t EditError = 0;
  uint8_t Status = 0; ///< llstar::ParseStatus (Ok/Recovered/SyntaxError)
  int64_t NumTokens = 0;
  int64_t TreeNodes = 0;
  int64_t ErrorLeaves = 0;
  int64_t NodesReused = 0;
  int64_t TokensRelexed = 0;
  int64_t DecisionsReparsed = 0;
  double EditMillis = 0;
  std::string TreeText; ///< rendered only under FlagWantTree
  std::string DiagText;
};

struct ErrorReply {
  WireError Code = WireError::None;
  std::string Message;
};

//===----------------------------------------------------------------------===//
// Encoders: each returns a complete record (header + body), ready for
// frameRecord.
//===----------------------------------------------------------------------===//

std::string encodeParseArgs(uint64_t RequestId, const ParseArgs &Args,
                            bool Recover);
std::string encodeParseReply(uint64_t RequestId, const ParseReply &Reply,
                             bool Recover);
std::string encodeLoadBundleArgs(uint64_t RequestId, std::string_view Bytes);
std::string encodeLoadBundleReply(uint64_t RequestId,
                                  const LoadBundleReply &Reply);
std::string encodeStatsArgs(uint64_t RequestId, bool IncludeDecisions);
std::string encodeStatsReply(uint64_t RequestId, std::string_view Json);
std::string encodeDrainArgs(uint64_t RequestId);
std::string encodeDrainReply(uint64_t RequestId);
std::string encodeEditArgs(uint64_t RequestId, const EditArgs &Args);
std::string encodeEditReply(uint64_t RequestId, const EditReplyBody &Reply);
std::string encodeErrorReply(uint64_t RequestId, WireError Code,
                             std::string_view Message);

//===----------------------------------------------------------------------===//
// Decoders. decodeHeader validates magic/version/opcode; the body
// decoders take the reader positioned after the header and require it to
// be fully consumed.
//===----------------------------------------------------------------------===//

/// Returns WireError::None and fills \p Hdr on success. On BadVersion the
/// header is still filled (the request id lets the error reply echo it).
WireError decodeHeader(ByteReader &R, MessageHeader &Hdr);

bool decodeParseArgs(ByteReader &R, uint8_t Flags, ParseArgs &Args);
bool decodeParseReply(ByteReader &R, ParseReply &Reply);
bool decodeLoadBundleArgs(ByteReader &R, std::string &Bytes);
bool decodeLoadBundleReply(ByteReader &R, LoadBundleReply &Reply);
bool decodeStatsArgs(ByteReader &R);
bool decodeStatsReply(ByteReader &R, std::string &Json);
bool decodeDrainBody(ByteReader &R); ///< Drain args and reply: empty body
bool decodeEditArgs(ByteReader &R, uint8_t Flags, EditArgs &Args);
bool decodeEditReply(ByteReader &R, EditReplyBody &Reply);
bool decodeErrorReply(ByteReader &R, ErrorReply &Reply);

/// Any reply message, decoded. Which member is meaningful depends on
/// Hdr.Op.
struct Message {
  MessageHeader Hdr;
  ParseReply Parse;
  LoadBundleReply Load;
  EditReplyBody Edit;
  std::string StatsJson;
  ErrorReply Error;
};

/// Decodes one reply record (client side). Returns false with \p Err set
/// on any protocol violation, including request opcodes.
bool decodeReply(std::string_view Record, Message &Out, std::string &Err);

//===----------------------------------------------------------------------===//
// ParseResult bridging
//===----------------------------------------------------------------------===//

/// Flattens a service result into its wire form (field-for-field).
ParseReply makeParseReply(const ParseResult &R);

} // namespace wire
} // namespace llstar

#endif // LLSTAR_NET_WIREFORMAT_H
