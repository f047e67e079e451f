// Wire protocol of the alignment daemon: length-prefixed frames over a
// UNIX-domain stream socket.
//
// A connection is one tenant's query stream. The client opens with a Hello
// frame naming its tenant, then sends any number of Batch frames — each
// payload is one reads batch, either FASTQ text or SeqDB bytes (the daemon
// sniffs the "MERASDB1" magic) — and receives one Sam frame per batch in
// order. The SAM header travels inside the FIRST Sam frame of a connection,
// so concatenating a connection's Sam payloads reproduces exactly the file
// the one-shot CLI would have written for the same batches. MetricsReq asks
// for the process MetricsRegistry in Prometheus text format (the scrape
// endpoint), StatsReq for the per-tenant accounting as JSON, and Goodbye
// ends the stream cleanly. A recoverable problem (a batch that fails to
// parse) comes back as an Error frame on the same connection; the stream
// continues. A protocol violation (bad magic, oversized frame) closes the
// connection — and only that connection.
//
// Frame layout (every header field little-endian, whatever the host):
//
//   magic u32 ("MRSV") | type u32 | payload length u64 | payload bytes...
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace mera::serve {

/// A peer broke the framing contract (bad magic, unreasonable length, short
/// read mid-frame) or the socket itself failed.
class FramingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FrameType : std::uint32_t {
  // client -> daemon
  kHello = 1,       ///< payload: tenant name (UTF-8, non-empty)
  kBatch = 2,       ///< payload: FASTQ text or SeqDB bytes
  kMetricsReq = 3,  ///< payload empty; asks for a Prometheus scrape
  kStatsReq = 4,    ///< payload empty; asks for per-tenant stats JSON
  kGoodbye = 5,     ///< payload empty; clean end of stream
  // daemon -> client
  kSam = 17,      ///< one batch's SAM bytes (header included in the first)
  kError = 18,    ///< human-readable error text; stream continues
  kMetrics = 19,  ///< Prometheus text exposition
  kStats = 20,    ///< per-tenant stats JSON
};

struct Frame {
  FrameType type{};
  std::string payload;
};

inline constexpr std::uint32_t kFrameMagic = 0x5653524D;  // "MRSV"
/// Bytes of a frame header: magic, type and payload length.
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Default per-frame payload cap — a framing error beyond it, so one
/// garbage length prefix cannot make the daemon allocate the moon.
inline constexpr std::uint64_t kDefaultMaxFrameBytes = 1ull << 30;

/// Read exactly `n` bytes (EINTR-safe). Returns false on clean EOF before
/// the first byte; throws FramingError on EOF mid-buffer or socket error.
bool read_exact(int fd, void* buf, std::size_t n);
/// Write all `n` bytes (EINTR-safe, SIGPIPE-suppressed on sockets). Throws
/// FramingError when the peer is gone or the fd fails.
void write_all(int fd, const void* buf, std::size_t n);

/// Read one frame. std::nullopt = the peer closed cleanly at a frame
/// boundary. Throws FramingError on anything malformed or truncated.
std::optional<Frame> read_frame(int fd,
                                std::uint64_t max_payload = kDefaultMaxFrameBytes);
void write_frame(int fd, FrameType type, std::string_view payload);

/// Create, bind and listen on a UNIX-domain socket at `path` (an existing
/// socket file there is replaced). Returns the listening fd; throws
/// FramingError on failure.
int listen_unix(const std::string& path, int backlog = 16);
/// Connect to a daemon's socket; returns the connected fd or throws.
int connect_unix(const std::string& path);

}  // namespace mera::serve
