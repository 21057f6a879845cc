// The coordinator <-> remote worker wire protocol (v2, authenticated).
//
// Transport: TCP, carrying length-prefixed frames (common/proc.h codec,
// decoded by FrameBuffer). Since
// v2 every frame payload is *sealed*: an 8-byte little-endian SipHash-2-4
// MAC followed by the inner message, where the MAC covers the inner
// message's length (u32le) and bytes —
//
//   sealed frame payload = [u64le mac][inner message]
//   mac = siphash24(key, u32le(inner.size()) || inner)
//
// so a torn, spliced or forged frame fails verification even when the
// framing layer itself is intact. Inner messages are unchanged from v1's
// shape: a one-byte type tag followed by a type-specific body, all integers
// little-endian.
//
//   direction        message     inner body
//   worker -> coord  kHello      [u32 version][u64 worker pid][u64 challenge]
//   coord -> worker  kWelcome    [canonical ScenarioSpec text]
//   coord -> worker  kReject     [reason text] (connection then closes)
//   coord -> worker  kAssign     [u32 count] count x ([u32 index][u32 attempt])
//   worker -> coord  kResult     [u32 point index][result bytes]
//   both directions  kHeartbeat  (empty)
//   coord -> worker  kShutdown   (empty; campaign settled, exit cleanly)
//
// Keys: both sides derive a *base* key from the operator's pre-shared key
// file (or built-in default material when none is given — fine for loopback
// fleets, documented as such). The worker seals its HELLO — which carries a
// fresh random challenge — under the base key; everything after the
// handshake is sealed under the *session* key derived from (base,
// challenge), so recorded frames never replay across sessions.
//
// Registration: a worker connects, sends kHello, and receives either
// kWelcome — carrying the full canonical spec text, from which the worker
// rebuilds the exact CampaignRunner point expansion (this is what makes
// result bytes machine-independent) — or kReject with a typed reason:
//   - a legacy v1 HELLO (13 raw bytes, no MAC) gets an *unsealed* REJECT so
//     the v1 peer can actually read the version-mismatch reason;
//   - a sealed HELLO under the wrong key gets a REJECT sealed under the
//     coordinator's base key; the worker surfaces it via
//     peek_frame_unverified (it cannot verify a frame under a key it does
//     not share, but the reject text tells the operator which side to fix).
//
// Assignments carry the attempt number per point so worker-side chaos
// draws replay their (seed, point, attempt) schedules exactly.
//
// Every parse_* returns nullopt on a malformed inner message (wrong tag,
// short body, inconsistent count); open_frame returns nullopt on a bad MAC.
// The coordinator treats either as a protocol violation and evicts the
// connection.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mac.h"

namespace sos::campaign {

/// Bump on any wire-format change; kHello/kWelcome enforce the match.
/// v2: keyed-MAC sealing on every frame, HELLO carries a session challenge.
inline constexpr std::uint32_t kRemoteProtocolVersion = 2;

/// Key material used when the operator supplies no key file. Loopback
/// fleets work out of the box; any real deployment sets --key-file on both
/// sides.
inline constexpr std::string_view kDefaultKeyMaterial =
    "sos-fleet-default-key-v2\n";

enum class MessageType : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kReject = 3,
  kAssign = 4,
  kResult = 5,
  kHeartbeat = 6,
  kShutdown = 7,
};

struct Hello {
  std::uint32_t version = kRemoteProtocolVersion;
  std::uint64_t pid = 0;  // worker's pid: lets a coordinator that forked
                          // local workers map a session back to its child
  std::uint64_t challenge = 0;  // fresh per connection; seeds the session key
};

struct Assignment {
  int index = 0;    // point index within the campaign expansion
  int attempt = 0;  // charged failures so far (chaos draws key on this)
};

struct ResultFrame {
  int index = 0;
  std::string bytes;
};

// --- Frame sealing (the v2 authentication layer). ---

inline constexpr std::size_t kFrameMacBytes = 8;

/// Wraps an inner message as a sealed frame payload: [u64le mac][inner],
/// mac = siphash24(key, u32le(inner.size()) || inner).
std::string seal_frame(std::string_view inner, const common::MacKey& key);

/// Verifies and unwraps a sealed frame payload; nullopt on a short frame or
/// MAC mismatch.
std::optional<std::string> open_frame(const std::string& sealed,
                                      const common::MacKey& key);

/// The inner bytes of a sealed frame WITHOUT verification (empty view for a
/// short frame). Only for surfacing a typed REJECT to a peer whose key does
/// not match — never act on unverified content beyond printing the reason.
std::string_view peek_frame_unverified(const std::string& sealed);

/// Loads base-key material from `key_file` (throws std::runtime_error with
/// the path on a read failure); an empty path selects kDefaultKeyMaterial.
common::MacKey load_base_key(const std::string& key_file);

// --- Handshake inspection (coordinator side). ---

enum class HelloVerdict : std::uint8_t {
  kOk = 0,              // sealed v2 HELLO, MAC valid
  kVersionMismatch,     // a peer speaking some other protocol version
  kBadMac,              // sealed frame that fails base-key verification
  kMalformed,           // verified (or legacy-shaped) but unparseable
};

struct HelloInspection {
  HelloVerdict verdict = HelloVerdict::kMalformed;
  Hello hello;                       // valid iff verdict == kOk
  std::uint32_t spoken_version = 0;  // set for kVersionMismatch
  bool legacy_unsealed = false;      // true for a raw v1 HELLO: the REJECT
                                     // must go out unsealed to be readable
};

/// Classifies a raw registration frame: a legacy v1 HELLO (13 unsealed
/// bytes), a sealed v2 HELLO under `base_key`, a sealed HELLO under the
/// wrong key, or garbage.
HelloInspection inspect_hello(const std::string& raw_frame,
                              const common::MacKey& base_key);

/// The golden typed-REJECT reason for a version mismatch (pinned by tests
/// and docs): "protocol version mismatch: coordinator speaks <v2>, worker
/// spoke <worker_version>".
std::string reject_version_mismatch(std::uint32_t worker_version);

/// The golden typed-REJECT reason for a handshake that fails MAC
/// verification (wrong pre-shared key).
inline constexpr std::string_view kRejectBadHelloMac =
    "authentication failed: HELLO MAC invalid (pre-shared key mismatch)";

/// The typed eviction reason for a mid-session frame failing verification.
inline constexpr std::string_view kBadFrameMacReason = "bad frame MAC";

// --- Inner message codecs (unchanged framing from v1 except HELLO). ---

/// The type tag of an inner message, or nullopt for an empty/unknown tag.
std::optional<MessageType> message_type(const std::string& frame);

std::string encode_hello(const Hello& hello);
std::optional<Hello> parse_hello(const std::string& frame);

std::string encode_welcome(std::string_view spec_text);
std::optional<std::string> parse_welcome(const std::string& frame);

std::string encode_reject(std::string_view reason);
std::optional<std::string> parse_reject(const std::string& frame);

std::string encode_assign(const std::vector<Assignment>& assignments);
std::optional<std::vector<Assignment>> parse_assign(const std::string& frame);

std::string encode_result(int index, std::string_view bytes);
std::optional<ResultFrame> parse_result(const std::string& frame);

std::string encode_heartbeat();
std::string encode_shutdown();

}  // namespace sos::campaign
