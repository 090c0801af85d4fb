/// Fuzz target for the versioned index-image loaders (vecsim/index_io.h).
///
/// Persisted index images cross a trust boundary: the IndexManager loads
/// them from disk at lookup time, so a truncated, corrupted, or adversarial
/// image must surface as a Status error — never as an out-of-bounds read,
/// unbounded allocation, or crash. The first input byte selects the index
/// family; the rest is fed to that family's Load(). On a successful load
/// the index is exercised (TopK, MemoryBytes) and round-tripped through
/// Save/Load, which must succeed on anything Load accepted.
///
/// Built two ways:
///  - Clang + -fsanitize=fuzzer,address: libFuzzer driver (CI smoke runs
///    this for 30s over the seed corpus).
///  - everywhere else: CRE_FUZZ_STANDALONE main() that replays the corpus
///    files given as argv, so the GCC-only container still smoke-tests the
///    harness under ctest.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "vecsim/brute_force.h"
#include "vecsim/hnsw_index.h"
#include "vecsim/ivf_index.h"
#include "vecsim/ivfpq_index.h"
#include "vecsim/vector_index.h"

namespace {

std::unique_ptr<cre::VectorIndex> MakeFamily(std::uint8_t selector) {
  switch (selector % 4) {
    case 0:
      return std::make_unique<cre::FlatIndex>();
    case 1:
      return std::make_unique<cre::HnswIndex>();
    case 2:
      return std::make_unique<cre::IvfIndex>();
    default:
      return std::make_unique<cre::IvfPqIndex>();
  }
}

/// Post-load shakedown: anything Load accepted must be safely queryable
/// and re-serializable.
void Exercise(const cre::VectorIndex& index) {
  (void)index.MemoryBytes();
  const std::size_t dim = index.dim();
  if (dim == 0 || dim > (1u << 20)) return;
  const std::vector<float> query(dim, 0.25f);
  (void)index.TopKChecked(query.data(), dim, 3);

  std::ostringstream out;
  if (!index.Save(out).ok()) return;
  auto reload = index.Clone();
  std::istringstream in(out.str());
  reload->Load(in).Check();  // a saved image must always load
}

void RunOne(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return;
  auto index = MakeFamily(data[0]);
  std::istringstream image(
      std::string(reinterpret_cast<const char*>(data + 1), size - 1));
  if (index->Load(image).ok()) Exercise(*index);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  RunOne(data, size);
  return 0;
}

#ifdef CRE_FUZZ_STANDALONE
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

namespace {

bool ReplayFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "index_io_fuzz: cannot open %s\n",
                 path.string().c_str());
    return false;
  }
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  RunOne(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  return true;
}

}  // namespace

/// Replays every argument; directory arguments replay each regular file
/// inside (the ctest smoke passes the generated corpus directory).
int main(int argc, char** argv) {
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path arg(argv[i]);
    if (std::filesystem::is_directory(arg)) {
      for (const auto& entry : std::filesystem::directory_iterator(arg)) {
        if (!entry.is_regular_file()) continue;
        if (!ReplayFile(entry.path())) return 1;
        ++replayed;
      }
    } else {
      if (!ReplayFile(arg)) return 1;
      ++replayed;
    }
  }
  if (replayed == 0) {
    std::fprintf(stderr, "index_io_fuzz: no inputs replayed\n");
    return 1;
  }
  std::fprintf(stderr, "index_io_fuzz: replayed %d input(s)\n", replayed);
  return 0;
}
#endif  // CRE_FUZZ_STANDALONE
