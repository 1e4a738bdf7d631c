// Classic libpcap capture-file format (magic 0xa1b2c3d4, LINKTYPE_ETHERNET),
// implemented from the file-format specification. Files written here open in
// Wireshark/tcpdump; the reader accepts both byte orders.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/packet.hpp"

namespace tvacr::net {

inline constexpr std::uint32_t kPcapMagicMicros = 0xA1B2C3D4;
/// kPcapMagicMicros as read little-endian from a file written big-endian.
inline constexpr std::uint32_t kPcapMagicSwapped = 0xD4C3B2A1;
inline constexpr std::uint32_t kPcapLinkTypeEthernet = 1;
inline constexpr std::uint32_t kPcapSnapLen = 262144;
/// Records are validated against the snaplen the file header declares, not
/// kPcapSnapLen (foreign captures legitimately declare larger limits). Some
/// writers declare "unlimited" (e.g. 0 or 0xFFFFFFFF); the effective limit
/// is clamped here so a corrupt record length cannot demand a giant buffer.
inline constexpr std::uint32_t kPcapMaxSnapLen = 64 * 1024 * 1024;
inline constexpr std::size_t kPcapGlobalHeaderLen = 24;
inline constexpr std::size_t kPcapRecordHeaderLen = 16;

/// Streams packets into a pcap byte stream. The stream reference must outlive
/// the writer. Timestamps are simulated time from t=0 (epoch offset 0).
///
/// Stream failures (disk full, closed pipe) are latched: every write checks
/// the stream and the first failure sticks, so a capture can never be
/// silently truncated into a valid-looking-but-short file. Callers must
/// check finish() (or status()) before treating the output as complete.
class PcapWriter {
  public:
    explicit PcapWriter(std::ostream& out);

    void write(const Packet& packet);
    [[nodiscard]] std::uint64_t packets_written() const noexcept { return packets_written_; }

    /// Latched stream state: ok until the first failed write.
    [[nodiscard]] Status status() const {
        return failed_ ? Status(make_error("pcap: stream write failed")) : Status::success();
    }

    /// Flushes and returns the final stream state. The writer is unusable
    /// for further writes after a failure is reported.
    [[nodiscard]] Status finish();

  private:
    std::ostream& out_;
    std::uint64_t packets_written_ = 0;
    bool failed_ = false;
};

/// Appends a pcap file header declaring `snaplen` (microsecond timestamps,
/// LINKTYPE_ETHERNET, little-endian): the header every writer here emits.
void append_pcap_file_header(ByteWriter& out, std::uint32_t snaplen = kPcapSnapLen);

/// Appends one record: `frame` as captured (incl_len = frame.size()) and
/// `orig_len` as the frame's length on the wire.
void append_pcap_record(ByteWriter& out, SimTime timestamp, BytesView frame,
                        std::uint32_t orig_len);

/// In-memory pcap serialization of a packet list (used heavily by tests and
/// by the capture tap when persisting experiment traces).
[[nodiscard]] Bytes to_pcap_bytes(const std::vector<Packet>& packets);

/// Parses a pcap byte buffer into packets. Handles the swapped-magic case
/// (file written on an opposite-endian machine) and truncated trailing
/// records (a capture killed mid-write loses at most the final packet).
[[nodiscard]] Result<std::vector<Packet>> from_pcap_bytes(BytesView data);

/// File helpers.
Status write_pcap_file(const std::string& path, const std::vector<Packet>& packets);
[[nodiscard]] Result<std::vector<Packet>> read_pcap_file(const std::string& path);

/// One decoded pcap record. The frame span aliases the bytes it was decoded
/// from (for PcapReader: invalidated by the next call to next()).
struct PcapRecord {
    SimTime timestamp;
    std::uint32_t orig_len = 0;  // original frame size before snaplen capping
    BytesView frame;
};

/// The fields of a pcap file header that record decoding depends on.
struct PcapFileHeader {
    bool swapped = false;  // fields are big-endian (kPcapMagicSwapped)
    std::uint32_t declared_snaplen = 0;
    /// The declared snaplen, with 0 and anything above kPcapMaxSnapLen
    /// ("unlimited") clamped to kPcapMaxSnapLen.
    std::uint32_t effective_snaplen = 0;
};

/// Parses and validates the file header at the front of `data`. A bad
/// magic is reported as soon as four bytes are present; fewer than
/// kPcapGlobalHeaderLen bytes otherwise fail as "pcap: truncated file
/// header". Every pcap reader (batch, streaming and tailing) calls this.
[[nodiscard]] Result<PcapFileHeader> parse_pcap_file_header(BytesView data);

/// What decode_pcap_record found at the front of a byte view.
struct PcapRecordStep {
    /// The whole record, when all of it is present.
    std::optional<PcapRecord> record;
    /// Bytes the front record occupies (header + body); just
    /// kPcapRecordHeaderLen while its header is incomplete. With `record`
    /// empty, the decoder needs at least this many bytes to make progress.
    std::size_t size = 0;
};

/// Decodes the record at the front of `data` (the bytes after the file
/// header or after the previous record): the record, "need more bytes"
/// (no record, see PcapRecordStep::size), or an error when the record
/// exceeds the header's snaplen. The one record decoder behind
/// from_pcap_bytes, both PcapReader backends and the gateway.
[[nodiscard]] Result<PcapRecordStep> decode_pcap_record(const PcapFileHeader& header,
                                                        BytesView data);

/// Record source selection for PcapReader::open. kAuto memory-maps the file
/// when the platform supports it (records become zero-copy views into the
/// mapping, no buffer refills or compaction slides); kBuffered forces the
/// portable chunked-ifstream path. Both yield bit-identical record streams
/// — the equivalence test in test_net.cpp drives them side by side.
enum class PcapBackend {
    kAuto,
    kBuffered,
};

/// Buffered streaming pcap reader: yields one record at a time from disk
/// without materializing the whole capture. Memory stays O(buffer) — a
/// refill chunk plus the largest record seen — which is what lets the
/// analysis pipeline handle captures far larger than RAM. Honors the file
/// header's declared snaplen (clamped to kPcapMaxSnapLen) and tolerates a
/// truncated trailing record exactly like from_pcap_bytes. On POSIX the
/// file is memory-mapped instead (same O(resident) behaviour, the page
/// cache backs the mapping) unless kBuffered is requested.
class PcapReader {
  public:
    /// Refill granularity; records larger than this grow the buffer to fit.
    static constexpr std::size_t kChunkSize = 256 * 1024;

    /// Opens a pcap file and parses the global header.
    [[nodiscard]] static Result<PcapReader> open(const std::string& path,
                                                 PcapBackend backend = PcapBackend::kAuto);

    /// Next record, or nullopt at end of capture (clean EOF or tolerated
    /// mid-record truncation). Errors are structural: bad record lengths.
    [[nodiscard]] Result<std::optional<PcapRecord>> next();

    [[nodiscard]] std::uint64_t packets_read() const noexcept { return packets_read_; }
    /// Bytes of a cut-off final record (its partial header or body), counted
    /// once next() has reached the end; 0 when the capture ends cleanly.
    [[nodiscard]] std::uint64_t torn_tail_bytes() const noexcept { return torn_tail_bytes_; }
    /// The file header's declared snaplen, before clamping.
    [[nodiscard]] std::uint32_t declared_snaplen() const noexcept {
        return header_.declared_snaplen;
    }
    /// True when records are served from a memory mapping (diagnostics; the
    /// record stream is identical either way).
    [[nodiscard]] bool memory_mapped() const noexcept { return mapped_ != nullptr; }

    ~PcapReader();
    PcapReader(PcapReader&&) noexcept;
    PcapReader& operator=(PcapReader&&) noexcept;

  private:
    PcapReader() = default;

    /// Ensures `need` contiguous unread bytes are buffered; returns how many
    /// are actually available (short at EOF). Buffered backend only.
    std::size_t buffered(std::size_t need);

    /// The unread bytes, from the mapping or the buffer.
    [[nodiscard]] BytesView unread() const noexcept;

    struct MappedFile;  // owns the mmap; unmaps on destruction

    std::unique_ptr<std::ifstream> file_;
    std::unique_ptr<MappedFile> mapped_;
    Bytes buffer_;
    // Unread bytes are [begin_, end_) of the mapping or of buffer_.
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
    bool source_exhausted_ = false;
    bool done_ = false;
    PcapFileHeader header_;
    std::uint64_t packets_read_ = 0;
    std::uint64_t torn_tail_bytes_ = 0;
};

}  // namespace tvacr::net
