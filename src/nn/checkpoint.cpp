#include "nn/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "tensor/serialize.hpp"

namespace dsx::nn {

namespace {

constexpr char kMagic[4] = {'D', 'S', 'X', 'K'};
// Magic of the version-1 format, which carried parameters only.
constexpr char kMagicV1[4] = {'D', 'S', 'X', 'C'};
constexpr int64_t kVersion = 2;

template <typename T>
void write_pod(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_entry(std::ostream& os, const std::string& name,
                 const Tensor& value) {
  write_pod(os, static_cast<uint32_t>(name.size()));
  os.write(name.data(), static_cast<std::streamsize>(name.size()));
  save_tensor(os, value);
}

void read_count(std::istream& is, const char* what, size_t expected) {
  const uint64_t count = read_pod<uint64_t>(is);
  DSX_REQUIRE(is.good() && count == expected,
              "load_checkpoint: checkpoint has " << count << " " << what
                                                 << ", model has "
                                                 << expected);
}

/// Reads one entry and copies it into `dst` after checking name and shape.
void read_entry(std::istream& is, const std::string& expected_name,
                Tensor& dst) {
  const uint32_t len = read_pod<uint32_t>(is);
  DSX_REQUIRE(is.good() && len < 4096, "load_checkpoint: bad name length");
  std::string name(len, '\0');
  is.read(name.data(), len);
  DSX_REQUIRE(is.good() && name == expected_name,
              "load_checkpoint: expected '" << expected_name << "', found '"
                                            << name << "'");
  const Tensor value = load_tensor(is);
  DSX_REQUIRE(value.shape() == dst.shape(),
              "load_checkpoint: shape mismatch for '"
                  << expected_name << "': " << value.shape().to_string()
                  << " vs " << dst.shape().to_string());
  std::memcpy(dst.data(), value.data(),
              static_cast<size_t>(value.size_bytes()));
}

}  // namespace

void save_checkpoint(Layer& model, std::ostream& os) {
  const std::vector<Param*> params = model.params();
  const std::vector<Buffer> buffers = model.buffers();
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  write_pod(os, static_cast<uint64_t>(params.size()));
  for (const Param* p : params) write_entry(os, p->name, p->value);
  write_pod(os, static_cast<uint64_t>(buffers.size()));
  for (const Buffer& b : buffers) write_entry(os, b.name, b.value);
  DSX_CHECK(os.good(), "save_checkpoint: stream write failed");
}

void load_checkpoint(Layer& model, std::istream& is) {
  const std::vector<Param*> params = model.params();
  std::vector<Buffer> buffers = model.buffers();
  char magic[4] = {};
  is.read(magic, sizeof(magic));
  DSX_REQUIRE(is.good(), "load_checkpoint: truncated header");
  DSX_REQUIRE(std::memcmp(magic, kMagicV1, 4) != 0,
              "load_checkpoint: format version 1 (parameters only, no "
              "BatchNorm running statistics); this build reads version "
                  << kVersion << " - re-save the model");
  DSX_REQUIRE(std::memcmp(magic, kMagic, 4) == 0,
              "load_checkpoint: bad magic");
  const int64_t version = read_pod<int64_t>(is);
  DSX_REQUIRE(is.good() && version == kVersion,
              "load_checkpoint: file version " << version
                                               << ", this build reads "
                                               << kVersion);
  read_count(is, "params", params.size());
  for (Param* p : params) read_entry(is, p->name, p->value);
  read_count(is, "buffers", buffers.size());
  for (Buffer& b : buffers) read_entry(is, b.name, b.value);
}

void save_checkpoint_file(Layer& model, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  DSX_REQUIRE(os.is_open(), "save_checkpoint_file: cannot open " << path);
  save_checkpoint(model, os);
}

void load_checkpoint_file(Layer& model, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DSX_REQUIRE(is.is_open(), "load_checkpoint_file: cannot open " << path);
  load_checkpoint(model, is);
}

}  // namespace dsx::nn
