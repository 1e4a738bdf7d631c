#include "replay/tvcr.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/file_io.hpp"
#include "common/rng.hpp"
#include "dns/message.hpp"
#include "net/fast_parse.hpp"
#include "net/pcapng.hpp"
#include "replay/codec.hpp"

namespace tvacr::replay {

namespace {

inline constexpr std::size_t kBlockHeaderLen = kTvcrBlockHeaderLen;
inline constexpr std::uint8_t kCodecStored = 0;
inline constexpr std::uint8_t kCodecLz = 1;
inline constexpr std::uint8_t kKindUnparseable = 0;
inline constexpr std::uint8_t kKindIp = 1;
inline constexpr std::uint8_t kKindIpDns = 2;

std::uint64_t slot_bit(std::uint64_t key) {
    return std::uint64_t{1} << (splitmix64(key) % kTvcrMaskSlots);
}

void append_block_fields(ByteWriter& out, const TvcrBlockInfo& info) {
    out.u32(info.records);
    out.u64(info.first_index);
    out.u64(static_cast<std::uint64_t>(info.first_ts.as_micros()));
    out.u64(static_cast<std::uint64_t>(info.last_ts.as_micros()));
    out.u64(info.shard_mask);
    out.u64(info.domain_bloom);
    out.u32(info.uncompressed_len);
    out.u32(info.compressed_len);
    out.u8(info.codec);
    out.u32(info.payload_crc);
}

Result<TvcrBlockInfo> read_block_fields(ByteReader& in) {
    TvcrBlockInfo info;
    auto records = in.u32();
    auto first_index = in.u64();
    auto first_ts = in.u64();
    auto last_ts = in.u64();
    auto shard_mask = in.u64();
    auto domain_bloom = in.u64();
    auto uncompressed = in.u32();
    auto compressed = in.u32();
    auto codec = in.u8();
    auto crc = in.u32();
    if (!records || !first_index || !first_ts || !last_ts || !shard_mask || !domain_bloom ||
        !uncompressed || !compressed || !codec || !crc) {
        return make_error("tvcr: truncated block metadata");
    }
    info.records = records.value();
    info.first_index = first_index.value();
    info.first_ts = SimTime::micros(static_cast<std::int64_t>(first_ts.value()));
    info.last_ts = SimTime::micros(static_cast<std::int64_t>(last_ts.value()));
    info.shard_mask = shard_mask.value();
    info.domain_bloom = domain_bloom.value();
    info.uncompressed_len = uncompressed.value();
    info.compressed_len = compressed.value();
    info.codec = codec.value();
    info.payload_crc = crc.value();
    if (info.codec > kCodecLz) return make_error("tvcr: unknown block codec");
    if (info.uncompressed_len > kTvcrMaxBlockPayload ||
        info.compressed_len > kTvcrMaxBlockPayload) {
        return make_error("tvcr: block payload length exceeds structural maximum");
    }
    return info;
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

analysis::DecodedRecord to_decoded_record(TvcrRecord&& record) {
    analysis::DecodedRecord decoded;
    decoded.timestamp = record.timestamp;
    decoded.frame_bytes = record.frame_bytes;
    decoded.parseable = record.parseable;
    decoded.source = record.source;
    decoded.destination = record.destination;
    decoded.dns_payload = std::move(record.dns_payload);
    return decoded;
}

// ------------------------------------------------------------- TvcrWriter

struct TvcrWriter::Impl {
    std::vector<TvcrRecord> pending;
    /// Domain table in first-harvest order; ids are positions.
    std::vector<std::string> domains;
    std::unordered_map<std::string, std::uint32_t> domain_ids;
    /// First-mapping-wins, mirroring DnsMap's attribution rule.
    std::unordered_map<std::uint32_t, std::uint32_t> address_domain;
    std::uint64_t shard_mask = 0;
    std::uint64_t domain_bloom = 0;
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
    bytes_emitted_ = header.size();
    impl_->pending.reserve(options_.block_records);
}

TvcrWriter::~TvcrWriter() = default;

void TvcrWriter::add(BytesView frame, SimTime timestamp, std::uint32_t orig_len) {
    TvcrRecord record;
    record.timestamp = timestamp;
    record.frame_bytes = static_cast<std::uint32_t>(frame.size());
    record.orig_len = orig_len == 0 ? record.frame_bytes : orig_len;
    if (options_.keep_frames) record.frame.assign(frame.begin(), frame.end());

    const net::FrameSummary summary = net::summarize_frame(frame);
    if (summary.attributable) {
        record.parseable = true;
        record.source = summary.source;
        record.destination = summary.destination;
        impl_->shard_mask |= slot_bit(record.source.value());
        impl_->shard_mask |= slot_bit(record.destination.value());
        if (!summary.dns_payload.empty()) {
            record.dns_payload.assign(summary.dns_payload.begin(), summary.dns_payload.end());
            // Harvest A records for the domain index, first mapping wins —
            // the same rule DnsMap applies during analysis, so the bloom
            // reflects what the analyzer will attribute.
            if (auto message = dns::DnsMessage::decode(record.dns_payload);
                message.ok() && message.value().is_response &&
                !message.value().questions.empty()) {
                const std::string name = message.value().questions.front().name.to_string();
                for (const auto& answer : message.value().answers) {
                    if (answer.type != dns::RecordType::kA) continue;
                    const auto* address = std::get_if<net::Ipv4Address>(&answer.rdata);
                    if (address == nullptr) continue;
                    auto [it, inserted] = impl_->domain_ids.try_emplace(
                        name, static_cast<std::uint32_t>(impl_->domains.size()));
                    if (inserted) impl_->domains.push_back(name);
                    impl_->address_domain.try_emplace(address->value(), it->second);
                }
            }
        }
        for (const net::Ipv4Address address : {record.source, record.destination}) {
            const auto it = impl_->address_domain.find(address.value());
            if (it != impl_->address_domain.end()) {
                impl_->domain_bloom |= slot_bit(it->second);
            }
        }
    }

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

    TvcrBlockInfo info;
    info.offset = bytes_emitted_;
    info.records = static_cast<std::uint32_t>(records.size());
    info.first_index = records_total_ - records.size();
    info.first_ts = records.front().timestamp;
    info.last_ts = records.back().timestamp;
    info.shard_mask = impl_->shard_mask;
    info.domain_bloom = impl_->domain_bloom;
    info.uncompressed_len = static_cast<std::uint32_t>(uncompressed.size());
    info.compressed_len = static_cast<std::uint32_t>(stored.size());
    info.codec = use_lz ? kCodecLz : kCodecStored;
    info.payload_crc = crc32(stored);

    ByteWriter block;
    block.u32(kTvcrBlockMagic);
    append_block_fields(block, info);
    block.raw(BytesView(stored));
    if (!failed_) {
        out_.write(reinterpret_cast<const char*>(block.view().data()),
                   static_cast<std::streamsize>(block.size()));
        if (!out_.good()) failed_ = true;
    }
    bytes_emitted_ += block.size();

    blocks_.push_back(info);
    impl_->pending.clear();
    impl_->shard_mask = 0;
    impl_->domain_bloom = 0;
}

Status TvcrWriter::finish() {
    if (finished_) return make_error("tvcr: finish() called twice");
    finished_ = true;
    flush_block();
    // A latched block-write failure means index offsets would point at bytes
    // that never landed; don't emit an index that certifies a torn file.
    if (failed_) return status();

    ByteWriter index;
    index.u32(kTvcrIndexMagic);
    index.u64(records_total_);
    put_varint(index, impl_->domains.size());
    for (const std::string& domain : impl_->domains) {
        put_varint(index, domain.size());
        index.raw(domain);
    }
    put_varint(index, blocks_.size());
    for (const TvcrBlockInfo& info : blocks_) {
        index.u64(info.offset);
        append_block_fields(index, info);
    }

    ByteWriter trailer;
    trailer.u64(bytes_emitted_);  // index offset
    trailer.u32(static_cast<std::uint32_t>(index.size()));
    trailer.u32(crc32(index.view()));
    trailer.u32(0);  // reserved
    trailer.u32(kTvcrTrailerMagic);

    out_.write(reinterpret_cast<const char*>(index.view().data()),
               static_cast<std::streamsize>(index.size()));
    out_.write(reinterpret_cast<const char*>(trailer.view().data()),
               static_cast<std::streamsize>(trailer.size()));
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

Result<Bytes> TvcrReader::read_at(std::uint64_t offset, std::size_t length) {
    if (offset + length > file_size_) return make_error("tvcr: read past end of file");
    if (file_ == nullptr) {
        return Bytes(memory_.begin() + static_cast<std::ptrdiff_t>(offset),
                     memory_.begin() + static_cast<std::ptrdiff_t>(offset + length));
    }
    file_->clear();
    file_->seekg(static_cast<std::streamoff>(offset));
    Bytes buffer(length);
    file_->read(reinterpret_cast<char*>(buffer.data()), static_cast<std::streamsize>(length));
    if (static_cast<std::size_t>(file_->gcount()) != length) {
        return make_error("tvcr: short read (file truncated under the index?)");
    }
    return buffer;
}

Status TvcrReader::load(std::uint64_t file_size) {
    file_size_ = file_size;
    auto header_bytes = read_at(0, std::min<std::uint64_t>(file_size, kTvcrHeaderLen));
    if (!header_bytes) return header_bytes.error();
    auto header = parse_tvcr_file_header(header_bytes.value());
    if (!header) return header.error();
    header_ = header.value();
    if (file_size < kTvcrHeaderLen + kTvcrTrailerLen) {
        return make_error("tvcr: file too small for header and trailer");
    }

    auto trailer_bytes = read_at(file_size_ - kTvcrTrailerLen, kTvcrTrailerLen);
    if (!trailer_bytes) return trailer_bytes.error();
    ByteReader trailer(trailer_bytes.value());
    auto index_offset = trailer.u64();
    auto index_len = trailer.u32();
    auto index_crc = trailer.u32();
    auto reserved = trailer.u32();
    auto trailer_magic = trailer.u32();
    if (!index_offset || !index_len || !index_crc || !reserved || !trailer_magic) {
        return make_error("tvcr: truncated trailer");
    }
    if (trailer_magic.value() != kTvcrTrailerMagic) {
        return make_error("tvcr: bad trailer magic (file truncated?)");
    }
    if (index_offset.value() < kTvcrHeaderLen ||
        index_offset.value() + index_len.value() > file_size_ - kTvcrTrailerLen) {
        return make_error("tvcr: index location out of bounds");
    }

    auto index_bytes = read_at(index_offset.value(), index_len.value());
    if (!index_bytes) return index_bytes.error();
    if (crc32(index_bytes.value()) != index_crc.value()) {
        return make_error("tvcr: index checksum mismatch");
    }

    ByteReader index(index_bytes.value());
    auto index_magic = index.u32();
    if (!index_magic || index_magic.value() != kTvcrIndexMagic) {
        return make_error("tvcr: bad index magic");
    }
    auto total = index.u64();
    if (!total) return make_error("tvcr: truncated index");
    total_records_ = total.value();

    auto domain_count = get_varint(index);
    if (!domain_count) return domain_count.error();
    if (domain_count.value() > index.remaining()) {
        return make_error("tvcr: domain table larger than index");
    }
    domains_.reserve(static_cast<std::size_t>(domain_count.value()));
    for (std::uint64_t d = 0; d < domain_count.value(); ++d) {
        auto length = get_varint(index);
        if (!length) return length.error();
        auto name = index.view(static_cast<std::size_t>(length.value()));
        if (!name) return make_error("tvcr: truncated domain table");
        domains_.emplace_back(name.value().begin(), name.value().end());
    }

    auto block_count = get_varint(index);
    if (!block_count) return block_count.error();
    if (block_count.value() > index.remaining()) {
        return make_error("tvcr: block table larger than index");
    }
    blocks_.reserve(static_cast<std::size_t>(block_count.value()));
    std::uint64_t expected_index = 0;
    for (std::uint64_t b = 0; b < block_count.value(); ++b) {
        auto offset = index.u64();
        if (!offset) return make_error("tvcr: truncated block table");
        auto info = read_block_fields(index);
        if (!info) return info.error();
        info.value().offset = offset.value();
        if (info.value().offset < kTvcrHeaderLen ||
            info.value().offset + kBlockHeaderLen + info.value().compressed_len >
                index_offset.value()) {
            return make_error("tvcr: block extent out of bounds");
        }
        if (info.value().first_index != expected_index || info.value().records == 0) {
            return make_error("tvcr: block record indices not contiguous");
        }
        expected_index += info.value().records;
        blocks_.push_back(info.value());
    }
    if (expected_index != total_records_) {
        return make_error("tvcr: block record counts disagree with trailer total");
    }
    return Status{};
}

Result<std::vector<TvcrRecord>> TvcrReader::read_block(std::size_t block) {
    if (block >= blocks_.size()) return make_error("tvcr: block number out of range");
    const TvcrBlockInfo& info = blocks_[block];

    auto raw = read_at(info.offset, kBlockHeaderLen + info.compressed_len);
    if (!raw) return raw.error();
    auto on_disk = parse_block_header(BytesView(raw.value().data(), kBlockHeaderLen));
    if (!on_disk) return on_disk.error();
    if (on_disk.value().records != info.records ||
        on_disk.value().compressed_len != info.compressed_len ||
        on_disk.value().uncompressed_len != info.uncompressed_len ||
        on_disk.value().codec != info.codec || on_disk.value().payload_crc != info.payload_crc) {
        return make_error("tvcr: block header disagrees with index");
    }

    const BytesView stored(raw.value().data() + kBlockHeaderLen, info.compressed_len);
    return decode_block_payload(info, stored, has_frames(), snaplen());
}

Result<TvcrBlockInfo> parse_block_header(BytesView bytes) {
    ByteReader header(bytes);
    auto magic = header.u32();
    if (!magic || magic.value() != kTvcrBlockMagic) {
        return make_error("tvcr: bad block magic (offset corrupt?)");
    }
    return read_block_fields(header);
}

Result<std::vector<TvcrRecord>> decode_block_payload(const TvcrBlockInfo& info, BytesView stored,
                                                     bool has_frames, std::uint32_t snaplen) {
    if (stored.size() != info.compressed_len) {
        return make_error("tvcr: stored block length mismatch");
    }
    if (crc32(stored) != info.payload_crc) return make_error("tvcr: block checksum mismatch");

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
        previous_ts += zigzag_decode(delta.value());
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

std::vector<std::size_t> TvcrReader::blocks_in_range(SimTime from, SimTime to) const {
    std::vector<std::size_t> out;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        if (blocks_[b].last_ts >= from && blocks_[b].first_ts <= to) out.push_back(b);
    }
    return out;
}

std::vector<std::size_t> TvcrReader::blocks_for_address(net::Ipv4Address address) const {
    const std::uint64_t bit = std::uint64_t{1} << (splitmix64(address.value()) % kTvcrMaskSlots);
    std::vector<std::size_t> out;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        if ((blocks_[b].shard_mask & bit) != 0) out.push_back(b);
    }
    return out;
}

std::vector<std::size_t> TvcrReader::blocks_for_domain(const std::string& domain) const {
    const auto it = std::find(domains_.begin(), domains_.end(), domain);
    if (it == domains_.end()) return {};
    const auto id = static_cast<std::uint64_t>(it - domains_.begin());
    const std::uint64_t bit = std::uint64_t{1} << (splitmix64(id) % kTvcrMaskSlots);
    std::vector<std::size_t> out;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        if ((blocks_[b].domain_bloom & bit) != 0) out.push_back(b);
    }
    return out;
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

Result<std::vector<net::Packet>> from_tvcr_bytes(BytesView data) {
    auto reader = TvcrReader::from_bytes(data);
    if (!reader) return reader.error();
    if (!reader.value().has_frames()) {
        return make_error("tvcr: events-mode file has no frames (record with keep_frames)");
    }
    std::vector<net::Packet> packets;
    packets.reserve(static_cast<std::size_t>(reader.value().total_records()));
    for (std::size_t b = 0; b < reader.value().blocks().size(); ++b) {
        auto records = reader.value().read_block(b);
        if (!records) return records.error();
        for (auto& record : records.value()) {
            packets.push_back(net::Packet{record.timestamp, std::move(record.frame)});
        }
    }
    return packets;
}

Status write_tvcr_file(const std::string& path, const std::vector<net::Packet>& packets,
                       TvcrOptions options) {
    // Finalized write: `path` only appears once finish() wrote the trailer,
    // so a partially-written .tvcr can never be mistaken for a capture.
    return common::write_file_finalized(path, [&](std::ostream& file) -> Status {
        TvcrWriter writer(file, options);
        for (const auto& packet : packets) writer.add(packet);
        return writer.finish();
    });
}

}  // namespace tvacr::replay
