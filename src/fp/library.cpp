#include "fp/library.hpp"

namespace tvacr::fp {

void ContentLibrary::add(const ContentInfo& info) {
    entries_.insert_or_assign(info.id, Entry(info));
}

const ContentInfo* ContentLibrary::find(std::uint64_t content_id) const {
    const auto it = entries_.find(content_id);
    return it == entries_.end() ? nullptr : &it->second.info;
}

std::span<const VideoHash> ContentLibrary::reference_hashes(std::uint64_t content_id) const {
    const auto it = entries_.find(content_id);
    if (it == entries_.end()) return {};
    const Entry& entry = it->second;
    const std::lock_guard lock(streams_mutex_);
    if (entry.hashes.empty()) {
        const std::int64_t steps = entry.info.duration / kReferencePeriod;
        entry.hashes.reserve(static_cast<std::size_t>(steps));
        for (std::int64_t step = 0; step < steps; ++step) {
            entry.hashes.push_back(entry.stream.video_at(kReferencePeriod * step));
        }
    }
    return entry.hashes;
}

std::optional<std::uint32_t> ContentLibrary::reference_audio(std::uint64_t content_id,
                                                            std::int64_t step) const {
    const auto it = entries_.find(content_id);
    if (it == entries_.end()) return std::nullopt;
    const Entry& entry = it->second;
    if (step < 0 || step >= entry.info.duration / kReferencePeriod) return std::nullopt;
    const std::lock_guard lock(streams_mutex_);
    return audio_hash(entry.stream.audio_at(kReferencePeriod * step));
}

std::vector<ContentInfo> builtin_catalog(std::uint64_t seed) {
    struct Blueprint {
        const char* title;
        Genre genre;
        ContentKind kind;
        int minutes;
    };
    static constexpr Blueprint kBlueprints[] = {
        {"Evening News Hour", Genre::kNews, ContentKind::kLiveBroadcast, 60},
        {"Premier Football Live", Genre::kSports, ContentKind::kLiveBroadcast, 60},
        {"Morning Magazine", Genre::kNews, ContentKind::kLiveBroadcast, 45},
        {"Crime Drama S02E05", Genre::kDrama, ContentKind::kOttStream, 50},
        {"Cartoon Block", Genre::kKids, ContentKind::kFastChannel, 30},
        {"Home Shopping Marathon", Genre::kShopping, ContentKind::kFastChannel, 60},
        {"Soft Drink Spot 30s", Genre::kShopping, ContentKind::kAdvertisement, 1},
        {"Car Insurance Spot 20s", Genre::kShopping, ContentKind::kAdvertisement, 1},
        {"Documentary: Oceans", Genre::kDrama, ContentKind::kOttStream, 55},
        {"Esports Finals", Genre::kGaming, ContentKind::kLiveBroadcast, 60},
    };
    std::vector<ContentInfo> catalog;
    std::uint64_t id = 1000;
    for (const auto& blueprint : kBlueprints) {
        ContentInfo info;
        info.id = id++;
        info.title = blueprint.title;
        info.genre = blueprint.genre;
        info.kind = blueprint.kind;
        info.duration = SimTime::minutes(blueprint.minutes);
        info.seed = derive_seed(seed, info.id);
        info.dynamics = ContentDynamics::for_kind(blueprint.kind);
        catalog.push_back(std::move(info));
    }
    return catalog;
}

}  // namespace tvacr::fp
