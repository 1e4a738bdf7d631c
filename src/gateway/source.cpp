#include "gateway/source.hpp"

#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#define TVACR_GATEWAY_HAVE_FD 1
#include <cerrno>
#include <fcntl.h>
#include <unistd.h>
#endif

namespace tvacr::gateway {

namespace {

/// Appends `bytes` after sliding the unread tail to the front whenever the
/// consumed prefix is at least as long as the tail. Each slide copies no
/// more bytes than were consumed since the last one, so copying stays
/// linear in the stream, and the buffer holds O(chunk + largest in-flight
/// record/block) bytes, not O(stream).
void append_and_compact(Bytes& buffer, std::size_t& consumed, BytesView bytes) {
    if (consumed > 0 && consumed >= buffer.size() - consumed) {
        buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(consumed));
        consumed = 0;
    }
    buffer.insert(buffer.end(), bytes.begin(), bytes.end());
}

}  // namespace

// --------------------------------------------------------------- ByteFeeds

namespace {

/// Tails a regular file: remembers its read offset and re-polls for
/// growth, so a capture being written streams in as it lands. Never
/// reports kEnd — end-of-data is signaled by the format (the .tvcr end record)
/// or decided by the caller (non-follow mode treats kIdle as done).
class FileFeed final : public ByteFeed {
  public:
    explicit FileFeed(const std::string& path) : file_(path, std::ios::binary) {}

    [[nodiscard]] bool ok() const { return file_.is_open(); }

    Result<SourceStatus> read_some(Bytes& out, std::size_t max_bytes) override {
        out.resize(max_bytes);
        file_.clear();  // a previous poll may have hit (a then-) EOF
        file_.seekg(static_cast<std::streamoff>(offset_));
        file_.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(max_bytes));
        const auto got = static_cast<std::size_t>(file_.gcount());
        out.resize(got);
        offset_ += got;
        return got > 0 ? SourceStatus::kProgress : SourceStatus::kIdle;
    }

  private:
    std::ifstream file_;
    std::uint64_t offset_ = 0;
};

#if defined(TVACR_GATEWAY_HAVE_FD)
/// Non-blocking reads from an inherited descriptor (pipe/FIFO/socket).
class FdFeed final : public ByteFeed {
  public:
    explicit FdFeed(int fd) : fd_(fd) {
        const int flags = ::fcntl(fd_, F_GETFL, 0);
        if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    }

    Result<SourceStatus> read_some(Bytes& out, std::size_t max_bytes) override {
        out.resize(max_bytes);
        const ::ssize_t got = ::read(fd_, out.data(), max_bytes);
        if (got > 0) {
            out.resize(static_cast<std::size_t>(got));
            return SourceStatus::kProgress;
        }
        out.clear();
        if (got == 0) return SourceStatus::kEnd;  // writer closed the pipe
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
            return SourceStatus::kIdle;
        }
        return make_error("gateway: fd read failed (errno " + std::to_string(errno) + ")");
    }

  private:
    int fd_;
};
#endif

}  // namespace

// ------------------------------------------------------------ StreamSource

Result<StreamSource> StreamSource::open_file(const std::string& path) {
    auto feed = std::make_unique<FileFeed>(path);
    if (!feed->ok()) return make_error("gateway: cannot open source: " + path);
    return StreamSource(std::move(feed));
}

Result<StreamSource> StreamSource::open_fd(int fd) {
#if defined(TVACR_GATEWAY_HAVE_FD)
    return StreamSource(std::make_unique<FdFeed>(fd));
#else
    (void)fd;
    return make_error("gateway: fd sources need POSIX");
#endif
}

void StreamSource::offer(Gateway& gateway, analysis::DecodedRecord&& record) {
    ++records_offered_;
    gateway.offer(std::move(record));
}

Status StreamSource::decode(Gateway& gateway) {
    if (format_ == replay::CaptureFormat::kUnknown) {
        if (pending().size() < 4) return Status::success();
        format_ = replay::sniff_capture_format(pending());
        if (format_ == replay::CaptureFormat::kPcapng) {
            return make_error("gateway: pcapng streams are not supported (send pcap or .tvcr)");
        }
        // An unknown magic reads as pcap, as in the batch tools, so it fails
        // with the pcap reader's error — on the first four bytes, instead of
        // idling forever for a header that will not come.
        if (format_ == replay::CaptureFormat::kUnknown) {
            return net::parse_pcap_file_header(pending()).error();
        }
    }
    return format_ == replay::CaptureFormat::kTvcr ? decode_tvcr(gateway) : decode_pcap(gateway);
}

Status StreamSource::decode_pcap(Gateway& gateway) {
    if (!pcap_) {
        // The magic is known good, so a short header only waits.
        if (pending().size() < net::kPcapGlobalHeaderLen) return Status::success();
        auto header = net::parse_pcap_file_header(pending());
        if (!header.ok()) return header.error();
        pcap_ = header.value();
        consumed_ += net::kPcapGlobalHeaderLen;
    }
    while (true) {
        auto step = net::decode_pcap_record(*pcap_, pending());
        if (!step.ok()) return step.error();
        if (!step.value().record) return Status::success();  // wait for the rest
        const net::PcapRecord& pcap = *step.value().record;
        offer(gateway, analysis::decode_record(pcap.frame, pcap.timestamp));
        consumed_ += step.value().size;
    }
}

Status StreamSource::decode_tvcr(Gateway& gateway) {
    if (!tvcr_) {
        if (pending().size() < replay::kTvcrHeaderLen) return Status::success();
        auto header = replay::parse_tvcr_file_header(pending());
        if (!header.ok()) return header.error();
        tvcr_ = header.value();
        consumed_ += replay::kTvcrHeaderLen;
    }
    while (!tvcr_walk_.ended) {
        auto step = replay::walk_tvcr(tvcr_walk_, pending());
        if (!step.ok()) return step.error();
        const std::optional<replay::TvcrBlockInfo>& block = step.value().block;
        if (!block && !tvcr_walk_.ended) return Status::success();  // wait for the rest
        if (block) {
            const BytesView stored =
                pending().subspan(replay::kTvcrBlockHeaderLen, block->compressed_len);
            auto records = replay::decode_block_payload(*block, stored, tvcr_->has_frames,
                                                        tvcr_->snaplen);
            if (!records.ok()) return records.error();
            for (replay::TvcrRecord& record : records.value()) {
                offer(gateway, std::move(record));
            }
        }
        consumed_ += step.value().size;
    }
    return Status::success();
}

Result<SourceStatus> StreamSource::poll(Gateway& gateway, std::size_t max_bytes) {
    if (finalized_ || feed_ended_ || tvcr_walk_.ended) return SourceStatus::kEnd;
    Bytes chunk;
    auto status = feed_->read_some(chunk, max_bytes > 0 ? max_bytes : 1);
    if (!status.ok()) return status.error();
    if (status.value() == SourceStatus::kProgress) {
        append_and_compact(buffer_, consumed_, chunk);
        if (auto decoded = decode(gateway); !decoded.ok()) return decoded.error();
        if (!tvcr_walk_.ended) return SourceStatus::kProgress;
        // Nothing may follow the end record, as in the batch reader. Bytes
        // after it may sit in this chunk or still in the feed, so read the
        // feed once more: idle or end is a clean end, a byte is an error.
        if (pending().empty()) {
            status = feed_->read_some(chunk, max_bytes > 0 ? max_bytes : 1);
            if (!status.ok()) return status.error();
            if (status.value() != SourceStatus::kProgress) return SourceStatus::kEnd;
        }
        return make_error("tvcr: bytes after the end record");
    }
    if (status.value() == SourceStatus::kEnd) feed_ended_ = true;
    return status.value();
}

Result<std::uint64_t> StreamSource::torn_records() const {
    const BytesView tail = pending();
    if (format_ == replay::CaptureFormat::kTvcr) {
        if (!tvcr_) return replay::parse_tvcr_file_header(tail).error();
        if (tvcr_walk_.ended) return std::uint64_t{0};
        // No end record: at least one record is lost. A torn block with a
        // readable header declares how many died with it.
        if (tail.size() >= replay::kTvcrBlockHeaderLen) {
            auto info = replay::parse_block_header(tail.first(replay::kTvcrBlockHeaderLen));
            if (info.ok()) return std::uint64_t{info.value().records};
        }
        return std::uint64_t{1};
    }
    if (tail.empty()) return std::uint64_t{0};
    // Fewer than four bytes name no format; like the batch tools, read
    // them as pcap.
    if (!pcap_) return net::parse_pcap_file_header(tail).error();
    // A leftover tail after the last complete record is exactly one torn
    // record: the writer began a record and died before the body landed.
    // (Batch readers ignore that record; neither side analyzes it.)
    return std::uint64_t{1};
}

Status StreamSource::finalize(Gateway& gateway) {
    if (finalized_) return Status::success();
    finalized_ = true;
    auto torn = torn_records();
    if (!torn.ok()) return torn.error();
    gateway.note_truncated(torn.value());
    return Status::success();
}

}  // namespace tvacr::gateway
