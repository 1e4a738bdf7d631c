#include "net/pcap.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <ostream>

#include "common/file_io.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TVACR_PCAP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace tvacr::net {

namespace {

/// Header fields are little-endian unless the magic read swapped.
std::uint32_t load_u32(const std::uint8_t* p, bool swapped) noexcept {
    return swapped ? bytes::load_u32be(p) : bytes::load_u32le(p);
}

// Frames longer than the snaplen are truncated on write, as libpcap does:
// incl_len is capped, orig_len preserves the true size. (The reader rejects
// incl_len > snaplen, so an uncapped writer would produce captures it could
// never read back.)
std::size_t captured_len(const Packet& packet) noexcept {
    return std::min<std::size_t>(packet.data.size(), kPcapSnapLen);
}

using RecordHeader = std::array<std::uint8_t, kPcapRecordHeaderLen>;

RecordHeader record_header(SimTime timestamp, std::size_t incl_len, std::uint32_t orig_len) {
    const std::int64_t micros = timestamp.as_micros();
    const std::uint32_t fields[] = {static_cast<std::uint32_t>(micros / 1'000'000),
                                    static_cast<std::uint32_t>(micros % 1'000'000),
                                    static_cast<std::uint32_t>(incl_len), orig_len};
    RecordHeader header;
    for (std::size_t f = 0; f < 4; ++f) {
        for (std::size_t b = 0; b < 4; ++b) {
            header[f * 4 + b] = static_cast<std::uint8_t>(fields[f] >> (8 * b));
        }
    }
    return header;
}

void append_record(ByteWriter& out, const Packet& packet) {
    append_pcap_record(out, packet.timestamp, BytesView(packet.data.data(), captured_len(packet)),
                       static_cast<std::uint32_t>(packet.data.size()));
}

bool write_bytes(std::ostream& out, BytesView bytes) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return out.good();
}

}  // namespace

void append_pcap_file_header(ByteWriter& out, std::uint32_t snaplen) {
    out.u32le(kPcapMagicMicros);
    out.u16le(2);  // version major
    out.u16le(4);  // version minor
    out.u32le(0);  // thiszone
    out.u32le(0);  // sigfigs
    out.u32le(snaplen);
    out.u32le(kPcapLinkTypeEthernet);
}

void append_pcap_record(ByteWriter& out, SimTime timestamp, BytesView frame,
                        std::uint32_t orig_len) {
    out.raw(record_header(timestamp, frame.size(), orig_len));
    out.raw(frame);
}

PcapWriter::PcapWriter(std::ostream& out) : out_(out) {
    ByteWriter header;
    append_pcap_file_header(header);
    if (!write_bytes(out_, header.view())) failed_ = true;
}

void PcapWriter::write(const Packet& packet) {
    if (failed_) return;  // first failure is sticky; don't interleave garbage
    const std::size_t incl = captured_len(packet);
    if (!write_bytes(out_, record_header(packet.timestamp, incl,
                                         static_cast<std::uint32_t>(packet.data.size()))) ||
        !write_bytes(out_, BytesView(packet.data.data(), incl))) {
        failed_ = true;
        return;
    }
    ++packets_written_;
}

Status PcapWriter::finish() {
    if (!failed_) {
        out_.flush();
        if (!out_.good()) failed_ = true;
    }
    return status();
}

Bytes to_pcap_bytes(const std::vector<Packet>& packets) {
    std::size_t size = kPcapGlobalHeaderLen;
    for (const auto& packet : packets) size += kPcapRecordHeaderLen + captured_len(packet);
    ByteWriter out(size);
    append_pcap_file_header(out);
    for (const auto& packet : packets) append_record(out, packet);
    return std::move(out).take();
}

Result<PcapFileHeader> parse_pcap_file_header(BytesView data) {
    PcapFileHeader header;
    if (data.size() >= 4) {
        const std::uint32_t magic = bytes::load_u32le(data.data());
        if (magic != kPcapMagicMicros && magic != kPcapMagicSwapped) {
            return make_error("pcap: unrecognized magic number");
        }
        header.swapped = magic == kPcapMagicSwapped;
    }
    if (data.size() < kPcapGlobalHeaderLen) return make_error("pcap: truncated file header");
    const std::uint8_t* h = data.data();
    const std::uint16_t major =
        header.swapped ? bytes::load_u16be(h + 4) : bytes::load_u16le(h + 4);
    if (major != 2) return make_error("pcap: unsupported major version");
    // Bytes 6..15 (minor version, thiszone, sigfigs) carry nothing we use.
    header.declared_snaplen = load_u32(h + 16, header.swapped);
    if (load_u32(h + 20, header.swapped) != kPcapLinkTypeEthernet) {
        return make_error("pcap: unsupported link type (want Ethernet)");
    }
    // Records are checked against the snaplen this file declares, not our
    // writer's compile-time kPcapSnapLen: foreign captures written with a
    // larger snaplen are valid input. A zero or absurd declared value means
    // "effectively unlimited" and is clamped to the structural maximum.
    header.effective_snaplen =
        (header.declared_snaplen == 0 || header.declared_snaplen > kPcapMaxSnapLen)
            ? kPcapMaxSnapLen
            : header.declared_snaplen;
    return header;
}

Result<PcapRecordStep> decode_pcap_record(const PcapFileHeader& header, BytesView data) {
    PcapRecordStep step;
    step.size = kPcapRecordHeaderLen;
    if (data.size() < kPcapRecordHeaderLen) return step;
    const std::uint8_t* h = data.data();
    const bool swapped = header.swapped;
    const std::uint32_t incl_len = load_u32(h + 8, swapped);
    if (incl_len > header.effective_snaplen) return make_error("pcap: record exceeds snaplen");
    step.size = kPcapRecordHeaderLen + incl_len;
    if (data.size() < step.size) return step;
    PcapRecord record;
    record.timestamp = SimTime::micros(static_cast<std::int64_t>(load_u32(h, swapped)) * 1'000'000 +
                                       load_u32(h + 4, swapped));
    record.orig_len = load_u32(h + 12, swapped);
    record.frame = data.subspan(kPcapRecordHeaderLen, incl_len);
    step.record = record;
    return step;
}

Result<std::vector<Packet>> from_pcap_bytes(BytesView data) {
    auto header = parse_pcap_file_header(data);
    if (!header) return header.error();
    std::vector<Packet> packets;
    std::size_t position = kPcapGlobalHeaderLen;
    while (true) {
        auto step = decode_pcap_record(header.value(), data.subspan(position));
        if (!step) return step.error();
        // A truncated final record (incomplete header or body) is tolerated:
        // real captures are often cut mid-packet when the capture stops.
        if (!step.value().record) break;
        const PcapRecord& record = *step.value().record;
        packets.push_back(
            Packet{record.timestamp, Bytes(record.frame.begin(), record.frame.end())});
        position += step.value().size;
    }
    return packets;
}

Status write_pcap_file(const std::string& path, const std::vector<Packet>& packets) {
    // Finalized write: a crash or full disk mid-write must not leave a
    // valid-looking-but-short capture at `path`. The records stream out
    // through one bounded buffer, so the file is never held whole.
    constexpr std::size_t kChunk = 1 << 20;
    static_assert(kChunk >= kPcapGlobalHeaderLen + kPcapRecordHeaderLen + kPcapSnapLen);
    return common::write_file_finalized(path, [&](std::ostream& file) -> Status {
        ByteWriter chunk(kChunk);
        const auto flush = [&] {
            const bool ok = write_bytes(file, chunk.view());
            chunk.clear();
            return ok;
        };
        append_pcap_file_header(chunk);
        for (const auto& packet : packets) {
            if (chunk.size() + kPcapRecordHeaderLen + captured_len(packet) > kChunk && !flush()) {
                return make_error("pcap: write failed: " + path);
            }
            append_record(chunk, packet);
        }
        if (!flush()) return make_error("pcap: write failed: " + path);
        return Status::success();
    });
}

Result<std::vector<Packet>> read_pcap_file(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) return make_error("pcap: cannot open for reading: " + path);
    Bytes bytes((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
    return from_pcap_bytes(bytes);
}

// --------------------------------------------------------------- PcapReader

/// Owns one read-only file mapping; unmapped on destruction. Held behind a
/// unique_ptr so PcapReader's defaulted moves stay correct.
struct PcapReader::MappedFile {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;

    MappedFile(const std::uint8_t* d, std::size_t s) noexcept : data(d), size(s) {}
    MappedFile(const MappedFile&) = delete;
    MappedFile& operator=(const MappedFile&) = delete;
    ~MappedFile() {
#if defined(TVACR_PCAP_HAVE_MMAP)
        if (data != nullptr) {
            ::munmap(const_cast<std::uint8_t*>(data), size);  // NOLINT: munmap wants void*
        }
#endif
    }
};

PcapReader::~PcapReader() = default;
PcapReader::PcapReader(PcapReader&&) noexcept = default;
PcapReader& PcapReader::operator=(PcapReader&&) noexcept = default;

std::size_t PcapReader::buffered(std::size_t need) {
    if (end_ - begin_ >= need) return need;
    // Compact: slide the unread tail to the front, then refill in chunks.
    if (begin_ > 0) {
        std::copy(buffer_.begin() + static_cast<std::ptrdiff_t>(begin_),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(end_), buffer_.begin());
        end_ -= begin_;
        begin_ = 0;
    }
    const std::size_t target = std::max(need, kChunkSize);
    if (buffer_.size() < target) buffer_.resize(target);
    while (end_ < need && !source_exhausted_) {
        file_->read(reinterpret_cast<char*>(buffer_.data() + end_),
                    static_cast<std::streamsize>(buffer_.size() - end_));
        const std::size_t got = static_cast<std::size_t>(file_->gcount());
        end_ += got;
        if (got == 0 || file_->eof()) source_exhausted_ = true;
    }
    return std::min(need, end_ - begin_);
}

Result<PcapReader> PcapReader::open(const std::string& path, PcapBackend backend) {
    PcapReader reader;
#if defined(TVACR_PCAP_HAVE_MMAP)
    if (backend == PcapBackend::kAuto) {
        // Map the whole file read-only when possible. Any failure (missing
        // file, pipe/FIFO, empty file, exotic filesystem) silently falls
        // back to the buffered path, which reports the usual errors.
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd >= 0) {
            struct stat st{};
            if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
                void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                                   MAP_PRIVATE, fd, 0);
                if (map != MAP_FAILED) {
                    ::madvise(map, static_cast<std::size_t>(st.st_size), MADV_SEQUENTIAL);
                    reader.mapped_ = std::make_unique<MappedFile>(
                        static_cast<const std::uint8_t*>(map),
                        static_cast<std::size_t>(st.st_size));
                }
            }
            ::close(fd);
        }
    }
#else
    (void)backend;
#endif
    if (reader.mapped_ != nullptr) {
        reader.end_ = reader.mapped_->size;
    } else {
        reader.file_ = std::make_unique<std::ifstream>(path, std::ios::binary);
        if (!*reader.file_) return make_error("pcap: cannot open for reading: " + path);
        (void)reader.buffered(kPcapGlobalHeaderLen);
    }
    auto header = parse_pcap_file_header(reader.unread());
    if (!header) return header.error();
    reader.header_ = header.value();
    reader.begin_ += kPcapGlobalHeaderLen;
    return reader;
}

BytesView PcapReader::unread() const noexcept {
    const std::uint8_t* base = mapped_ != nullptr ? mapped_->data : buffer_.data();
    return BytesView(base + begin_, end_ - begin_);
}

Result<std::optional<PcapRecord>> PcapReader::next() {
    while (!done_) {
        auto step = decode_pcap_record(header_, unread());
        if (!step) return step.error();
        if (step.value().record) {
            begin_ += step.value().size;
            ++packets_read_;
            return step.value().record;
        }
        // A truncated trailing record (incomplete header or body) ends the
        // capture cleanly, matching from_pcap_bytes. A mapping already holds
        // every byte; the buffered backend first tries to read the rest.
        const std::size_t need = step.value().size;
        if (mapped_ != nullptr || buffered(need) < need) done_ = true;
    }
    return std::optional<PcapRecord>(std::nullopt);
}

}  // namespace tvacr::net
