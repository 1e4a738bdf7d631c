#include "replay/tvcr.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/file_io.hpp"
#include "net/pcapng.hpp"
#include "replay/codec.hpp"

namespace tvacr::replay {

namespace {

inline constexpr std::uint8_t kCodecStored = 0;
inline constexpr std::uint8_t kCodecLz = 1;
inline constexpr std::uint8_t kKindUnparseable = 0;
inline constexpr std::uint8_t kKindIp = 1;
inline constexpr std::uint8_t kKindIpDns = 2;
/// The CRC is the last field of the block header and of the end record.
inline constexpr std::size_t kCrcLen = 4;

/// The CRC a whole block (header + stored payload) must carry: over the
/// header fields before the CRC, continued over the stored payload.
std::uint32_t block_crc(BytesView block) {
    return crc32(block.subspan(kTvcrBlockHeaderLen),
                 crc32(block.first(kTvcrBlockHeaderLen - kCrcLen)));
}

}  // namespace

CaptureFormat sniff_capture_format(BytesView head) noexcept {
    if (head.size() < 4) return CaptureFormat::kUnknown;
    const std::uint32_t le = bytes::load_u32le(head.data());
    if (le == net::kPcapMagicMicros || le == net::kPcapMagicSwapped) return CaptureFormat::kPcap;
    if (le == net::kPcapngSectionBlock) return CaptureFormat::kPcapng;
    if (bytes::load_u32be(head.data()) == kTvcrMagic) return CaptureFormat::kTvcr;
    return CaptureFormat::kUnknown;
}

CaptureFormat sniff_capture_file(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    std::uint8_t head[4] = {};
    file.read(reinterpret_cast<char*>(head), sizeof(head));
    return sniff_capture_format(BytesView(head, static_cast<std::size_t>(file.gcount())));
}

Result<TvcrFileHeader> parse_tvcr_file_header(BytesView data) {
    if (data.size() >= 4 && bytes::load_u32be(data.data()) != kTvcrMagic) {
        return make_error("tvcr: bad magic (not a .tvcr file)");
    }
    if (data.size() < kTvcrHeaderLen) return make_error("tvcr: truncated file header");
    if (bytes::load_u16be(data.data() + 4) != kTvcrVersion) {
        return make_error("tvcr: unsupported version");
    }
    TvcrFileHeader header;
    header.has_frames = (bytes::load_u16be(data.data() + 6) & kTvcrFlagFrames) != 0;
    header.snaplen = bytes::load_u32be(data.data() + 8);
    return header;
}

// ------------------------------------------------------------- TvcrWriter

struct TvcrWriter::Impl {
    std::vector<TvcrRecord> pending;
    /// One match table for every block this writer compresses.
    LzCompressor lz;
};

TvcrWriter::TvcrWriter(std::ostream& out, TvcrOptions options)
    : out_(out), options_(options), impl_(std::make_unique<Impl>()) {
    if (options_.block_records == 0) options_.block_records = 1;
    ByteWriter header;
    header.u32(kTvcrMagic);
    header.u16(kTvcrVersion);
    header.u16(options_.keep_frames ? kTvcrFlagFrames : 0);
    header.u32(options_.snaplen);
    header.u32(static_cast<std::uint32_t>(options_.block_records));
    header.u32(0);  // reserved
    out_.write(reinterpret_cast<const char*>(header.view().data()),
               static_cast<std::streamsize>(header.size()));
    if (!out_.good()) failed_ = true;
    impl_->pending.reserve(options_.block_records);
}

TvcrWriter::~TvcrWriter() = default;

void TvcrWriter::add(BytesView frame, SimTime timestamp, std::uint32_t orig_len) {
    TvcrRecord record{analysis::decode_record(frame, timestamp), 0, {}};
    // The stored difference orig_len - frame_bytes must not wrap.
    record.orig_len = std::max(orig_len, record.frame_bytes);
    if (options_.keep_frames) record.frame.assign(frame.begin(), frame.end());

    impl_->pending.push_back(std::move(record));
    ++records_total_;
    if (impl_->pending.size() >= options_.block_records) flush_block();
}

void TvcrWriter::flush_block() {
    if (impl_->pending.empty()) return;
    const std::vector<TvcrRecord>& records = impl_->pending;

    // Columnar payload: per-column runs of like-typed values compress far
    // better than interleaved records.
    ByteWriter payload;
    put_varint(payload, records.size());
    for (const auto& record : records) {
        payload.u8(record.parseable ? (record.dns_payload.empty() ? kKindIp : kKindIpDns)
                                    : kKindUnparseable);
    }
    std::int64_t previous_ts = records.front().timestamp.as_micros();
    for (const auto& record : records) {
        put_varint(payload, zigzag_encode(record.timestamp.as_micros() - previous_ts));
        previous_ts = record.timestamp.as_micros();
    }
    for (const auto& record : records) put_varint(payload, record.frame_bytes);
    for (const auto& record : records) {
        put_varint(payload, record.orig_len - record.frame_bytes);
    }
    // Block-local address dictionary in first-seen order.
    std::vector<std::uint32_t> addresses;
    std::unordered_map<std::uint32_t, std::uint32_t> address_ids;
    for (const auto& record : records) {
        if (!record.parseable) continue;
        for (const net::Ipv4Address addr : {record.source, record.destination}) {
            if (address_ids.try_emplace(addr.value(),
                                        static_cast<std::uint32_t>(addresses.size()))
                    .second) {
                addresses.push_back(addr.value());
            }
        }
    }
    put_varint(payload, addresses.size());
    for (const std::uint32_t address : addresses) payload.u32(address);
    for (const auto& record : records) {
        if (!record.parseable) continue;
        put_varint(payload, address_ids.at(record.source.value()));
        put_varint(payload, address_ids.at(record.destination.value()));
    }
    for (const auto& record : records) {
        if (record.dns_payload.empty()) continue;
        put_varint(payload, record.dns_payload.size());
        payload.raw(BytesView(record.dns_payload));
    }
    if (options_.keep_frames) {
        for (const auto& record : records) payload.raw(BytesView(record.frame));
    }

    const Bytes& uncompressed = payload.bytes();
    Bytes compressed = impl_->lz.compress(uncompressed);
    const bool use_lz = compressed.size() < uncompressed.size();
    const Bytes& stored = use_lz ? compressed : uncompressed;

    ByteWriter block;
    block.u32(kTvcrBlockMagic);
    block.u32(static_cast<std::uint32_t>(records.size()));
    block.u64(records_total_ - records.size());  // first_index
    block.u64(static_cast<std::uint64_t>(records.front().timestamp.as_micros()));
    block.u64(static_cast<std::uint64_t>(records.back().timestamp.as_micros()));
    block.u32(static_cast<std::uint32_t>(uncompressed.size()));
    block.u32(static_cast<std::uint32_t>(stored.size()));
    block.u8(use_lz ? kCodecLz : kCodecStored);
    block.u32(crc32(stored, crc32(block.view())));
    block.raw(BytesView(stored));
    if (!failed_) {
        out_.write(reinterpret_cast<const char*>(block.view().data()),
                   static_cast<std::streamsize>(block.size()));
        if (!out_.good()) failed_ = true;
    }

    ++blocks_written_;
    impl_->pending.clear();
}

Status TvcrWriter::finish() {
    if (finished_) return make_error("tvcr: finish() called twice");
    finished_ = true;
    flush_block();
    // After a failed block write, an end record would certify a torn file.
    if (failed_) return status();

    ByteWriter end;
    end.u32(kTvcrEndMagic);
    end.u64(records_total_);
    end.u32(crc32(end.view()));
    out_.write(reinterpret_cast<const char*>(end.view().data()),
               static_cast<std::streamsize>(end.size()));
    out_.flush();
    if (!out_.good()) failed_ = true;
    return status();
}

// ------------------------------------------------------------- TvcrReader

TvcrReader::~TvcrReader() = default;
TvcrReader::TvcrReader(TvcrReader&&) noexcept = default;
TvcrReader& TvcrReader::operator=(TvcrReader&&) noexcept = default;

Result<TvcrReader> TvcrReader::open(const std::string& path) {
    auto file = std::make_unique<std::ifstream>(path, std::ios::binary | std::ios::ate);
    if (!file->is_open()) return make_error("tvcr: cannot open " + path);
    const auto size = file->tellg();
    if (size < 0) return make_error("tvcr: cannot size " + path);
    TvcrReader reader;
    reader.file_ = std::move(file);
    if (auto status = reader.load(static_cast<std::uint64_t>(size)); !status.ok()) {
        return status.error();
    }
    return reader;
}

Result<TvcrReader> TvcrReader::from_bytes(BytesView data) {
    TvcrReader reader;
    reader.memory_ = data;
    if (auto status = reader.load(data.size()); !status.ok()) return status.error();
    return reader;
}

Result<BytesView> TvcrReader::read_at(std::uint64_t offset, std::size_t length,
                                      Bytes& buffer) {
    if (offset + length > file_size_) return make_error("tvcr: read past end of file");
    if (file_ == nullptr) return memory_.subspan(static_cast<std::size_t>(offset), length);
    file_->clear();
    file_->seekg(static_cast<std::streamoff>(offset));
    buffer.resize(length);
    file_->read(reinterpret_cast<char*>(buffer.data()), static_cast<std::streamsize>(length));
    if (static_cast<std::size_t>(file_->gcount()) != length) {
        return make_error("tvcr: short read (file changed while open?)");
    }
    return BytesView(buffer);
}

Status TvcrReader::load(std::uint64_t file_size) {
    file_size_ = file_size;
    Bytes buffer;
    auto header_bytes = read_at(0, std::min<std::uint64_t>(file_size, kTvcrHeaderLen), buffer);
    if (!header_bytes) return header_bytes.error();
    auto header = parse_tvcr_file_header(header_bytes.value());
    if (!header) return header.error();
    header_ = header.value();

    // The gateway's walk, over a file whose size is known: a step that
    // needs more bytes than are left means the end record never landed.
    TvcrWalk walk;
    std::size_t want = kTvcrBlockHeaderLen;
    while (!walk.ended) {
        const std::uint64_t left = file_size_ - walk.offset;
        const auto length = static_cast<std::size_t>(std::min<std::uint64_t>(want, left));
        auto data = read_at(walk.offset, length, buffer);
        if (!data) return data.error();
        auto step = walk_tvcr(walk, data.value());
        if (!step) return step.error();
        const bool waiting = !step.value().block && !walk.ended;
        if (waiting && step.value().size > left) {
            return make_error("tvcr: file ends before its end record (truncated?)");
        }
        if (step.value().block) blocks_.push_back(*step.value().block);
        want = waiting ? step.value().size : kTvcrBlockHeaderLen;
    }
    if (walk.offset != file_size_) return make_error("tvcr: bytes after the end record");
    total_records_ = walk.records;
    return Status{};
}

Result<std::vector<TvcrRecord>> TvcrReader::read_block(std::size_t block) {
    if (block >= blocks_.size()) return make_error("tvcr: block number out of range");
    const TvcrBlockInfo& info = blocks_[block];
    // Checked again: a file-backed reader reads the bytes anew.
    Bytes buffer;
    auto raw = read_at(info.offset, kTvcrBlockHeaderLen + info.compressed_len, buffer);
    if (!raw) return raw.error();
    if (block_crc(raw.value()) != info.crc) return make_error("tvcr: block checksum mismatch");
    return decode_block_payload(info, raw.value().subspan(kTvcrBlockHeaderLen), has_frames(),
                                snaplen());
}

Result<TvcrBlockInfo> parse_block_header(BytesView bytes) {
    ByteReader header(bytes);
    auto magic = header.u32();
    if (!magic || magic.value() != kTvcrBlockMagic) {
        return make_error("tvcr: bad block magic (stream corrupt?)");
    }
    auto records = header.u32();
    auto first_index = header.u64();
    auto first_ts = header.u64();
    auto last_ts = header.u64();
    auto uncompressed = header.u32();
    auto compressed = header.u32();
    auto codec = header.u8();
    auto crc = header.u32();
    if (!records || !first_index || !first_ts || !last_ts || !uncompressed || !compressed ||
        !codec || !crc) {
        return make_error("tvcr: truncated block header");
    }
    TvcrBlockInfo info;
    info.records = records.value();
    info.first_index = first_index.value();
    info.first_ts = SimTime::micros(static_cast<std::int64_t>(first_ts.value()));
    info.last_ts = SimTime::micros(static_cast<std::int64_t>(last_ts.value()));
    info.uncompressed_len = uncompressed.value();
    info.compressed_len = compressed.value();
    info.codec = codec.value();
    info.crc = crc.value();
    if (info.records == 0) return make_error("tvcr: empty block");
    if (info.codec > kCodecLz) return make_error("tvcr: unknown block codec");
    if (info.uncompressed_len > kTvcrMaxBlockPayload ||
        info.compressed_len > kTvcrMaxBlockPayload) {
        return make_error("tvcr: block payload length exceeds structural maximum");
    }
    return info;
}

Result<TvcrStep> walk_tvcr(TvcrWalk& walk, BytesView data) {
    if (data.size() < 4) return TvcrStep{std::nullopt, 4};
    const std::uint32_t magic = bytes::load_u32be(data.data());
    if (magic == kTvcrEndMagic) {
        if (data.size() < kTvcrEndLen) return TvcrStep{std::nullopt, kTvcrEndLen};
        if (crc32(data.first(kTvcrEndLen - kCrcLen)) !=
            bytes::load_u32be(data.data() + kTvcrEndLen - kCrcLen)) {
            return make_error("tvcr: end record checksum mismatch");
        }
        if (bytes::load_u64be(data.data() + 4) != walk.records) {
            return make_error("tvcr: end record total disagrees with the blocks");
        }
        walk.offset += kTvcrEndLen;
        walk.ended = true;
        return TvcrStep{std::nullopt, kTvcrEndLen};
    }
    if (magic != kTvcrBlockMagic) return make_error("tvcr: bad block magic (stream corrupt?)");
    if (data.size() < kTvcrBlockHeaderLen) return TvcrStep{std::nullopt, kTvcrBlockHeaderLen};
    auto info = parse_block_header(data.first(kTvcrBlockHeaderLen));
    if (!info) return info.error();
    const std::size_t size = kTvcrBlockHeaderLen + info.value().compressed_len;
    if (data.size() < size) return TvcrStep{std::nullopt, size};
    if (block_crc(data.first(size)) != info.value().crc) {
        return make_error("tvcr: block checksum mismatch");
    }
    if (info.value().first_index != walk.records) {
        return make_error("tvcr: block record indices not contiguous");
    }
    info.value().offset = walk.offset;
    walk.offset += size;
    walk.records += info.value().records;
    return TvcrStep{info.value(), size};
}

Result<std::vector<TvcrRecord>> decode_block_payload(const TvcrBlockInfo& info, BytesView stored,
                                                     bool has_frames, std::uint32_t snaplen) {
    if (stored.size() != info.compressed_len) {
        return make_error("tvcr: stored block length mismatch");
    }

    Bytes decompressed;
    if (info.codec == kCodecLz) {
        auto expanded = lz_decompress(stored, info.uncompressed_len);
        if (!expanded) return expanded.error();
        decompressed = std::move(expanded).value();
    } else {
        if (stored.size() != info.uncompressed_len) {
            return make_error("tvcr: stored block length mismatch");
        }
        decompressed.assign(stored.begin(), stored.end());
    }

    ByteReader payload(decompressed);
    auto count = get_varint(payload);
    if (!count) return count.error();
    if (count.value() != info.records) return make_error("tvcr: block record count mismatch");
    const auto n = static_cast<std::size_t>(count.value());

    std::vector<TvcrRecord> records(n);
    auto kinds = payload.view(n);
    if (!kinds) return make_error("tvcr: truncated kind column");
    for (std::size_t i = 0; i < n; ++i) {
        if (kinds.value()[i] > kKindIpDns) return make_error("tvcr: unknown record kind");
        records[i].parseable = kinds.value()[i] != kKindUnparseable;
    }
    std::int64_t previous_ts = info.first_ts.as_micros();
    for (std::size_t i = 0; i < n; ++i) {
        auto delta = get_varint(payload);
        if (!delta) return delta.error();
        const std::int64_t step = zigzag_decode(delta.value());
        if (step > 0 ? previous_ts > std::numeric_limits<std::int64_t>::max() - step
                     : previous_ts < std::numeric_limits<std::int64_t>::min() - step) {
            return make_error("tvcr: timestamp delta overflows");
        }
        previous_ts += step;
        records[i].timestamp = SimTime::micros(previous_ts);
    }
    for (std::size_t i = 0; i < n; ++i) {
        auto length = get_varint(payload);
        if (!length) return length.error();
        if (length.value() > info.uncompressed_len && length.value() > snaplen) {
            return make_error("tvcr: frame length exceeds structural bounds");
        }
        records[i].frame_bytes = static_cast<std::uint32_t>(length.value());
    }
    for (std::size_t i = 0; i < n; ++i) {
        auto extra = get_varint(payload);
        if (!extra) return extra.error();
        if (extra.value() > std::numeric_limits<std::uint32_t>::max() - records[i].frame_bytes) {
            return make_error("tvcr: original frame length overflows");
        }
        records[i].orig_len = records[i].frame_bytes + static_cast<std::uint32_t>(extra.value());
    }

    auto address_count = get_varint(payload);
    if (!address_count) return address_count.error();
    if (address_count.value() * 4 > payload.remaining()) {
        return make_error("tvcr: address table larger than block");
    }
    std::vector<net::Ipv4Address> addresses;
    addresses.reserve(static_cast<std::size_t>(address_count.value()));
    for (std::uint64_t a = 0; a < address_count.value(); ++a) {
        auto value = payload.u32();
        if (!value) return value.error();
        addresses.emplace_back(value.value());
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (!records[i].parseable) continue;
        auto src = get_varint(payload);
        auto dst = get_varint(payload);
        if (!src || !dst) return make_error("tvcr: truncated endpoint column");
        if (src.value() >= addresses.size() || dst.value() >= addresses.size()) {
            return make_error("tvcr: endpoint id outside address table");
        }
        records[i].source = addresses[static_cast<std::size_t>(src.value())];
        records[i].destination = addresses[static_cast<std::size_t>(dst.value())];
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (!records[i].parseable || kinds.value()[i] != kKindIpDns) continue;
        auto length = get_varint(payload);
        if (!length) return length.error();
        if (length.value() > payload.remaining()) {
            return make_error("tvcr: dns payload past block end");
        }
        auto body = payload.raw(static_cast<std::size_t>(length.value()));
        if (!body) return body.error();
        records[i].dns_payload = std::move(body).value();
    }
    if (has_frames) {
        for (std::size_t i = 0; i < n; ++i) {
            if (records[i].frame_bytes > payload.remaining()) {
                return make_error("tvcr: frame column past block end");
            }
            auto frame = payload.raw(records[i].frame_bytes);
            if (!frame) return frame.error();
            records[i].frame = std::move(frame).value();
        }
    }
    return records;
}

std::size_t TvcrReader::first_block_at_or_after(SimTime since) const {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        if (blocks_[b].last_ts >= since) return b;
    }
    return blocks_.size();
}

// --------------------------------------------------------------- helpers

Bytes to_tvcr_bytes(const std::vector<net::Packet>& packets, TvcrOptions options) {
    std::ostringstream stream(std::ios::binary);
    TvcrWriter writer(stream, options);
    for (const auto& packet : packets) writer.add(packet);
    // An in-memory stream cannot fail; finish() status is surfaced for the
    // file-backed path.
    (void)writer.finish();
    const std::string buffer = stream.str();
    return Bytes(buffer.begin(), buffer.end());
}

Status write_tvcr_file(const std::string& path, const std::vector<net::Packet>& packets,
                       TvcrOptions options) {
    // Finalized write: `path` only appears once finish() wrote the end record,
    // so a partially-written .tvcr can never be mistaken for a capture.
    return common::write_file_finalized(path, [&](std::ostream& file) -> Status {
        TvcrWriter writer(file, options);
        for (const auto& packet : packets) writer.add(packet);
        return writer.finish();
    });
}

}  // namespace tvacr::replay
