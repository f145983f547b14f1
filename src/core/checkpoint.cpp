#include "core/checkpoint.hpp"

#include <cstring>
#include <fstream>

#include "util/check.hpp"

namespace anow::core {

namespace {
constexpr std::uint64_t kMagic = 0x414e4f57434b5054ull;  // "ANOWCKPT"
}

void CheckpointImage::save_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ANOW_CHECK_MSG(out.good(), "cannot open checkpoint file " << path);
  auto put64 = [&](std::uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), 8);
  };
  put64(kMagic);
  put64(static_cast<std::uint64_t>(taken_at));
  put64(static_cast<std::uint64_t>(heap_brk));
  put64(app_state.size());
  put64(region.size());
  out.write(reinterpret_cast<const char*>(app_state.data()),
            static_cast<std::streamsize>(app_state.size()));
  out.write(reinterpret_cast<const char*>(region.data()),
            static_cast<std::streamsize>(region.size()));
  ANOW_CHECK_MSG(out.good(), "checkpoint write failed: " << path);
}

CheckpointImage CheckpointImage::load_from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ANOW_CHECK_MSG(in.good(), "cannot open checkpoint file " << path);
  auto get64 = [&] {
    std::uint64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), 8);
    return v;
  };
  CheckpointImage img;
  ANOW_CHECK_MSG(get64() == kMagic, "bad checkpoint magic in " << path);
  img.taken_at = static_cast<sim::Time>(get64());
  img.heap_brk = static_cast<std::int64_t>(get64());
  img.app_state.resize(get64());
  img.region.resize(get64());
  in.read(reinterpret_cast<char*>(img.app_state.data()),
          static_cast<std::streamsize>(img.app_state.size()));
  in.read(reinterpret_cast<char*>(img.region.data()),
          static_cast<std::streamsize>(img.region.size()));
  ANOW_CHECK_MSG(in.good(), "checkpoint truncated: " << path);
  return img;
}

CheckpointImage Checkpointer::take(std::vector<std::uint8_t> app_state) {
  auto& cluster = system_.cluster();
  const sim::Time t0 = cluster.sim().now();

  // (1) bring shared memory into a well-defined state.
  system_.gc_at_fork();
  // (2) the master collects all pages for which it has no valid copy.
  const std::int64_t fetched = system_.master_collect_all_pages();
  // (3) the master checkpoints itself to disk with libckpt.
  auto& master = system_.process(dsm::kMasterUid);
  CheckpointImage img;
  img.heap_brk = system_.heap_used();
  img.app_state = std::move(app_state);
  img.region.assign(master.region_data(),
                    master.region_data() + system_.config().heap_bytes);
  const std::int64_t bytes =
      img.image_bytes(system_.config().private_image_bytes);
  cluster.sim().sleep_for(cluster.cost().disk_write_time(bytes));
  img.taken_at = cluster.sim().now();

  stats_.checkpoints_taken++;
  stats_.pages_collected += fetched;
  stats_.total_time += cluster.sim().now() - t0;
  system_.stats().counter("ckpt.taken")++;
  system_.stats().counter("ckpt.pages_collected") += fetched;
  return img;
}

void Checkpointer::restore(dsm::DsmSystem& system,
                           const CheckpointImage& image) {
  system.restore_master_region(image.region, image.heap_brk);
}

}  // namespace anow::core
