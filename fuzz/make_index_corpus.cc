/// Seed-corpus generator for index_io_fuzz. Builds a small index of each
/// family over deterministic data, serializes it, and writes
/// `<selector byte><image bytes>` files into the directory given as
/// argv[1]. Also writes a truncated variant of each image so replaying the
/// corpus exercises the loader's error paths, not just the happy path.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "vecsim/brute_force.h"
#include "vecsim/hnsw_index.h"
#include "vecsim/ivf_index.h"
#include "vecsim/ivfpq_index.h"
#include "vecsim/vector_index.h"

namespace {

struct Family {
  std::uint8_t selector;  // must match MakeFamily() in index_io_fuzz.cc
  const char* name;
  std::unique_ptr<cre::VectorIndex> index;
};

bool WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path dir(argv[1]);
  std::filesystem::create_directories(dir);

  // Deterministic base data: 64 vectors, 8 dims.
  const std::size_t n = 64, dim = 8;
  cre::Rng rng(7);
  std::vector<float> data(n * dim);
  for (float& v : data) v = rng.NextFloat() * 2.0f - 1.0f;

  Family families[4];
  families[0] = {0, "flat", std::make_unique<cre::FlatIndex>()};
  families[1] = {1, "hnsw", std::make_unique<cre::HnswIndex>()};
  families[2] = {2, "ivf", std::make_unique<cre::IvfIndex>()};
  families[3] = {3, "ivfpq", std::make_unique<cre::IvfPqIndex>()};

  for (auto& family : families) {
    family.index->Build(data.data(), n, dim).Check();
    std::ostringstream image;
    family.index->Save(image).Check();
    const std::string seed =
        std::string(1, static_cast<char>(family.selector)) + image.str();
    if (!WriteFile(dir / (std::string(family.name) + ".bin"), seed) ||
        !WriteFile(dir / (std::string(family.name) + "_truncated.bin"),
                   seed.substr(0, seed.size() / 2))) {
      std::fprintf(stderr, "make_index_corpus: write failed in %s\n",
                   dir.string().c_str());
      return 1;
    }
  }
  std::printf("make_index_corpus: wrote %zu seeds to %s\n",
              std::size(families) * 2, dir.string().c_str());
  return 0;
}
