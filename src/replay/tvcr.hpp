// The .tvcr record/replay capture format.
//
// Pcap is write-once, scan-everything: re-running an analysis means
// re-reading and re-parsing every frame. A .tvcr file instead stores the
// *decoded event stream* the analyzer actually consumes — per-record
// timestamp, frame length, endpoint addresses and (for DNS responses) the
// raw DNS payload — in per-block-compressed columns, so analysis can start
// at any block boundary instead of byte zero. An optional frames mode
// additionally keeps the raw frame bytes, making the file losslessly
// round-trippable to pcap at the cost of compression ratio.
//
// File layout (all fixed-width fields big-endian via ByteWriter):
//   header   "TVCR" magic, version, flags (bit0 = frames kept), snaplen
//   block*   block header (magic, counts, time range, lengths, codec, CRC)
//            + per-block-compressed columnar payload; the CRC covers the
//            header fields and the stored payload
//   end      "TVEN" magic, total records, CRC: written by finish() only
// Writing is a pure forward stream (no seeking). Every reader walks the
// blocks forward with one step (walk_tvcr), so the batch reader and the
// gateway's tailing source see the same fields and fail the same way.
//
// Determinism contract: encoding is byte-stable (same records + options in,
// same file bytes out, any platform), and replaying the event stream through
// analysis::StreamingCaptureAnalyzer reproduces the batch engine's report
// byte-for-byte — from block 0 for the whole capture, from block k for the
// corresponding suffix. tests/test_replay.cpp enforces both.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/stream.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"

namespace tvacr::replay {

inline constexpr std::uint32_t kTvcrMagic = 0x54564352;       // "TVCR"
inline constexpr std::uint32_t kTvcrBlockMagic = 0x5456424B;  // "TVBK"
inline constexpr std::uint32_t kTvcrEndMagic = 0x5456454E;    // "TVEN"
inline constexpr std::uint16_t kTvcrVersion = 2;
inline constexpr std::uint16_t kTvcrFlagFrames = 0x0001;
inline constexpr std::size_t kTvcrHeaderLen = 20;
inline constexpr std::size_t kTvcrBlockHeaderLen = 45;  // magic + block fields + CRC
inline constexpr std::size_t kTvcrEndLen = 16;          // magic + total records + CRC
/// Hard cap on a single block's uncompressed payload; a corrupt length
/// field cannot demand a giant allocation.
inline constexpr std::uint32_t kTvcrMaxBlockPayload = 256 * 1024 * 1024;

/// Capture formats tvacr reads, as told apart by their first four bytes.
enum class CaptureFormat { kUnknown, kPcap, kPcapng, kTvcr };

/// Names the format from a capture's first four bytes: the pcap magic in
/// either byte order, the pcapng section block, or "TVCR". Fewer than four
/// bytes, or any other magic, is kUnknown; readers treat that as pcap, so
/// the error a bad file gets is the pcap reader's. The one format sniffer:
/// replay is the lowest module that knows all three magics.
[[nodiscard]] CaptureFormat sniff_capture_format(BytesView head) noexcept;

/// sniff_capture_format over the first bytes of a file (kUnknown when it
/// cannot be read).
[[nodiscard]] CaptureFormat sniff_capture_file(const std::string& path);

/// The .tvcr file header fields readers depend on.
struct TvcrFileHeader {
    bool has_frames = false;  // flags bit kTvcrFlagFrames
    std::uint32_t snaplen = net::kPcapSnapLen;
};

/// Parses and validates the file header at the front of `data`. A bad
/// magic is reported as soon as four bytes are present; fewer than
/// kTvcrHeaderLen bytes otherwise fail as "tvcr: truncated file header".
/// Shared by TvcrReader and the gateway's tailing parser.
[[nodiscard]] Result<TvcrFileHeader> parse_tvcr_file_header(BytesView data);

struct TvcrOptions {
    /// Records per block; the resume granularity. Smaller blocks give finer
    /// random access, larger blocks compress better.
    std::size_t block_records = 2048;
    /// Keep raw frame bytes (lossless pcap round-trip). Off by default: the
    /// event stream alone reproduces the analyzer byte-for-byte and is
    /// 10-100x smaller, because fingerprint payloads are incompressible.
    bool keep_frames = false;
    /// Snaplen recorded in the header, used when exporting back to pcap.
    std::uint32_t snaplen = net::kPcapSnapLen;
};

/// One decoded record, as stored in (and read back from) a .tvcr block:
/// the analyzer's DecodedRecord, which replay ingests as is, plus what a
/// pcap export needs. frame_bytes is the captured (post-snaplen) length.
struct TvcrRecord : analysis::DecodedRecord {
    std::uint32_t orig_len = 0;  // original frame length before capping
    Bytes frame;                 // raw frame bytes (frames mode only)
};

/// One block header, plus where the walk found it: everything a reader
/// needs to fetch, verify and decode the block without touching other
/// bytes.
struct TvcrBlockInfo {
    std::uint64_t offset = 0;  // absolute file offset of the block header
    std::uint32_t records = 0;
    std::uint64_t first_index = 0;  // global record index of the first record
    SimTime first_ts;
    SimTime last_ts;
    std::uint32_t uncompressed_len = 0;
    std::uint32_t compressed_len = 0;
    std::uint8_t codec = 0;  // 0 = stored, 1 = lz
    std::uint32_t crc = 0;   // over the header fields before it and the stored payload
};

/// Streams records into a .tvcr byte stream (forward-only; the end record
/// is emitted by finish()). The ostream must outlive the writer.
class TvcrWriter {
  public:
    explicit TvcrWriter(std::ostream& out, TvcrOptions options = {});
    ~TvcrWriter();
    TvcrWriter(TvcrWriter&&) = delete;

    /// Appends one captured frame. The frame is reduced here (endpoints,
    /// DNS payload) so readers never re-parse. An `orig_len` below
    /// frame.size(), 0 included, means "frame.size()".
    void add(BytesView frame, SimTime timestamp, std::uint32_t orig_len = 0);
    void add(const net::Packet& packet) { add(packet.data, packet.timestamp); }

    /// Flushes the open block and writes the end record. Must be called
    /// exactly once; add() is invalid afterwards. Reports any stream
    /// failure latched since construction — a .tvcr whose finish() failed
    /// (or was never called) has no end record and is a hard read error,
    /// never a silently short capture.
    Status finish();

    /// Latched stream state: ok until the first failed write. Checked on
    /// every block flush so a disk-full mid-capture surfaces immediately.
    [[nodiscard]] Status status() const {
        return failed_ ? Status(make_error("tvcr: stream write failed")) : Status::success();
    }

    [[nodiscard]] std::uint64_t records_written() const noexcept { return records_total_; }
    [[nodiscard]] std::uint64_t blocks_written() const noexcept { return blocks_written_; }

  private:
    struct Impl;
    void flush_block();

    std::ostream& out_;
    TvcrOptions options_;
    std::unique_ptr<Impl> impl_;
    std::uint64_t records_total_ = 0;
    std::uint64_t blocks_written_ = 0;
    bool finished_ = false;
    bool failed_ = false;
};

/// Random-access .tvcr reader: walks every block once when opened (header,
/// CRC, record numbering, end record), then decodes blocks on demand. A
/// file without its end record, a bit flip or a dropped or repeated block
/// fails with a clean Error (the corruption suite enforces it).
class TvcrReader {
  public:
    /// File-backed reader (seeks per block; memory stays O(one block)).
    [[nodiscard]] static Result<TvcrReader> open(const std::string& path);
    /// In-memory reader over caller-owned bytes (golden tests, transcodes).
    [[nodiscard]] static Result<TvcrReader> from_bytes(BytesView data);

    [[nodiscard]] const std::vector<TvcrBlockInfo>& blocks() const noexcept { return blocks_; }
    [[nodiscard]] std::uint64_t total_records() const noexcept { return total_records_; }
    [[nodiscard]] bool has_frames() const noexcept { return header_.has_frames; }
    [[nodiscard]] std::uint32_t snaplen() const noexcept { return header_.snaplen; }

    /// Decodes one block into records (CRC + structure validated).
    [[nodiscard]] Result<std::vector<TvcrRecord>> read_block(std::size_t block);

    /// First block whose time range reaches `since` (blocks_.size() if none).
    [[nodiscard]] std::size_t first_block_at_or_after(SimTime since) const;

    ~TvcrReader();
    TvcrReader(TvcrReader&&) noexcept;
    TvcrReader& operator=(TvcrReader&&) noexcept;

  private:
    TvcrReader() = default;
    /// The `length` bytes at `offset`: a view into memory_, or read from
    /// the file into `buffer`.
    [[nodiscard]] Result<BytesView> read_at(std::uint64_t offset, std::size_t length,
                                            Bytes& buffer);
    [[nodiscard]] Status load(std::uint64_t file_size);

    std::unique_ptr<std::ifstream> file_;
    BytesView memory_;
    std::uint64_t file_size_ = 0;
    TvcrFileHeader header_;
    std::uint64_t total_records_ = 0;
    std::vector<TvcrBlockInfo> blocks_;
};

/// In-memory serialization of a packet list (golden fixtures, tests).
[[nodiscard]] Bytes to_tvcr_bytes(const std::vector<net::Packet>& packets,
                                  TvcrOptions options = {});

/// File helpers.
Status write_tvcr_file(const std::string& path, const std::vector<net::Packet>& packets,
                       TvcrOptions options = {});

/// Parses one block header (kTvcrBlockHeaderLen bytes starting at the block
/// magic), validating magic, record count, codec and payload bounds. The
/// CRC is checked by walk_tvcr once the payload is present.
[[nodiscard]] Result<TvcrBlockInfo> parse_block_header(BytesView bytes);

/// Where a forward walk over a .tvcr's blocks stands.
struct TvcrWalk {
    std::uint64_t offset = kTvcrHeaderLen;  // file offset of the next block or end record
    std::uint64_t records = 0;              // records in the blocks walked so far
    bool ended = false;                     // the end record was read
};

/// What walk_tvcr found at the front of the bytes after the last step.
struct TvcrStep {
    /// The whole block, CRC-checked, numbered on from the blocks before it
    /// and with its offset set; empty at the end record or while bytes are
    /// missing.
    std::optional<TvcrBlockInfo> block;
    /// Bytes the front block or end record occupies. With no block and the
    /// walk not ended, the step needs at least this many bytes.
    std::size_t size = 0;
};

/// One step of the block walk over `data`, the bytes at walk.offset: a
/// whole block, the end record (walk.ended), "need more bytes", or an error
/// (bad magic or header, CRC mismatch, a block whose first_index does not
/// continue the walk, an end record whose total disagrees with the blocks).
/// A completed step advances `walk`. The one walk behind TvcrReader and
/// the gateway's tailing source.
[[nodiscard]] Result<TvcrStep> walk_tvcr(TvcrWalk& walk, BytesView data);

/// Decodes one stored (possibly compressed) block payload into records,
/// validating every column. `stored` must have passed walk_tvcr's CRC
/// check; `has_frames`/`snaplen` come from the file header. Shared by
/// TvcrReader::read_block and the gateway.
[[nodiscard]] Result<std::vector<TvcrRecord>> decode_block_payload(const TvcrBlockInfo& info,
                                                                   BytesView stored,
                                                                   bool has_frames,
                                                                   std::uint32_t snaplen);

}  // namespace tvacr::replay
