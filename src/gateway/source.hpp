// Tailing capture sources for the gateway.
//
// Batch readers (net::PcapReader, replay::TvcrReader) assume a finished
// file: they seal at EOF, and the .tvcr reader refuses a file with no
// end record outright. A resident gateway instead watches a capture *while it
// is being written* — a file that grows between polls, or raw bytes on a
// pipe — so this source is incremental: bytes are fed as they
// arrive, complete records are decoded and offered to the gateway, and a
// partial tail simply waits for the rest (or, at true end-of-stream, is
// accounted as a truncated drop so conservation stays exact).
//
// The format is named from the first four bytes by replay's one sniffer,
// and every record is decoded by the format's one decoder — the same code
// the batch readers run: net::decode_pcap_record for pcap, and
// replay::walk_tvcr + decode_block_payload for .tvcr, the block walk
// TvcrReader runs too. The .tvcr end record, when it finally appears, is
// the writer's explicit end-of-stream marker; a byte after it is an error,
// as it is for the batch reader.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "gateway/gateway.hpp"
#include "net/pcap.hpp"
#include "replay/tvcr.hpp"

namespace tvacr::gateway {

/// What one poll achieved.
enum class SourceStatus {
    kProgress,  // new bytes were consumed (records may have been offered)
    kIdle,      // no new bytes right now; the stream may still grow
    kEnd,       // definite end: fd EOF, or the .tvcr end record (writer done)
};

/// A byte feed the source polls: file tail or pipe/fd.
class ByteFeed {
  public:
    virtual ~ByteFeed() = default;
    /// Reads up to max_bytes into `out` (replacing its contents). Returns
    /// kProgress when bytes arrived, kIdle when none are available yet,
    /// kEnd at definite end-of-stream.
    [[nodiscard]] virtual Result<SourceStatus> read_some(Bytes& out, std::size_t max_bytes) = 0;
};

/// Auto-detecting tailing source: pulls bytes from a feed, names the
/// format from the first four bytes, decodes every complete pcap record or
/// .tvcr block, and offers each record to the gateway. A partial record
/// waits for the rest.
class StreamSource {
  public:
    explicit StreamSource(std::unique_ptr<ByteFeed> feed) : feed_(std::move(feed)) {}

    /// Opens a tailing file feed. The file need not be complete — it is
    /// re-polled for growth; pass the path of a capture being written.
    [[nodiscard]] static Result<StreamSource> open_file(const std::string& path);
    /// Wraps an inherited file descriptor (pipe/FIFO/socket). Reads are
    /// non-blocking; poll() reports kIdle when no bytes are ready.
    [[nodiscard]] static Result<StreamSource> open_fd(int fd);

    /// One poll turn: read up to max_bytes, decode, offer records to the
    /// gateway. kEnd means no further records can ever arrive. Errors are
    /// structural (bad magic, record exceeds snaplen, corrupt block, bytes
    /// after a .tvcr end record) and unrecoverable. The turn that reads a
    /// .tvcr end record reads the feed once more when nothing followed the
    /// end record in the chunk, so bytes after it fail the source as they
    /// fail the batch reader.
    [[nodiscard]] Result<SourceStatus> poll(Gateway& gateway, std::size_t max_bytes);

    /// Marks true end-of-stream. Call exactly once, after the final poll,
    /// before the final snapshot. A torn tail is accounted as truncated
    /// drops: 1 for a partial pcap record, the declared record count for a
    /// .tvcr block cut mid-payload, and 1 for any other .tvcr stream that
    /// ends without its end record (a cut block header, a cut end record,
    /// or a cut at a block boundary). A stream
    /// that ends inside its file header fails with the batch reader's
    /// "truncated file header" error; a stream that delivered no bytes at
    /// all is an empty capture, since a daemon may start before its writer.
    Status finalize(Gateway& gateway);

    [[nodiscard]] std::uint64_t records_offered() const noexcept { return records_offered_; }

  private:
    /// Decodes every complete record in the pending bytes.
    [[nodiscard]] Status decode(Gateway& gateway);
    [[nodiscard]] Status decode_pcap(Gateway& gateway);
    [[nodiscard]] Status decode_tvcr(Gateway& gateway);
    /// Records lost in the pending tail at end-of-stream (see finalize).
    [[nodiscard]] Result<std::uint64_t> torn_records() const;

    /// Received bytes not yet decoded.
    [[nodiscard]] BytesView pending() const noexcept {
        return BytesView(buffer_).subspan(consumed_);
    }
    void offer(Gateway& gateway, analysis::DecodedRecord&& record);

    std::unique_ptr<ByteFeed> feed_;
    Bytes buffer_;
    std::size_t consumed_ = 0;  // decoded bytes at the front of buffer_
    replay::CaptureFormat format_ = replay::CaptureFormat::kUnknown;  // until 4 bytes arrive
    std::optional<net::PcapFileHeader> pcap_;
    std::optional<replay::TvcrFileHeader> tvcr_;
    replay::TvcrWalk tvcr_walk_;  // ended once the writer's end record arrived
    bool feed_ended_ = false;
    bool finalized_ = false;
    std::uint64_t records_offered_ = 0;
};

}  // namespace tvacr::gateway
