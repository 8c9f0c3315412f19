// Versioned on-disk model store (the persistence half of dsx::deploy).
//
// One version = one immutable directory of artifacts:
//
//   <root>/<model>/<version>/manifest.bin   versioned manifest (magic "DSXM")
//                            weights.bin    nn::checkpoint ("DSXK"): params
//                                           and BatchNorm running statistics
//                            tuning.bin     dsx::tune cache ("DSXU"), optional
//
// The manifest records the rebuildable ArchSpec plus, for every artifact,
// its byte size and FNV-1a-64 checksum; every read path re-verifies both, so
// a truncated or bit-rotted artifact is rejected instead of silently served.
// Writes are atomic at version granularity: artifacts land in a hidden
// staging directory that is rename()d into place only after the manifest -
// written last - is on disk, so a crashed save can never publish a partial
// version.
//
// compile() is the bridge to the serving tier: it rebuilds the architecture,
// loads the weights, merges the version's stored tuning records into the
// process tune::Session and compiles with Mode::kCached - the plan
// warm-starts from the measurements persisted alongside the weights and
// never re-measures (and never writes back into the immutable artifact).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deploy/arch_spec.hpp"
#include "nn/containers.hpp"
#include "serve/compiled_model.hpp"
#include "tune/cache.hpp"

namespace dsx::deploy {

/// Size + checksum of one stored artifact file.
struct ArtifactInfo {
  std::string file;       // name inside the version directory
  int64_t bytes = 0;
  uint64_t checksum = 0;  // FNV-1a 64 over the file contents
};

struct VersionManifest {
  /// On-disk manifest format version; foreign versions are rejected.
  static constexpr int64_t kVersion = 1;

  std::string model;
  std::string version;
  ArchSpec arch;
  ArtifactInfo weights;
  bool has_tuning_cache = false;
  ArtifactInfo tuning;  // valid only when has_tuning_cache
};

/// FNV-1a 64-bit over a byte range / file (the store's integrity primitive;
/// exposed for tests and tooling).
uint64_t fnv1a64(const void* data, size_t bytes);
uint64_t fnv1a64_file(const std::string& path);

class ModelStore {
 public:
  /// Opens (creating if needed) the store rooted at `root`.
  explicit ModelStore(std::string root);

  const std::string& root() const { return root_; }

  /// Persists `net`'s weights (and, when given, `tuning`'s records) as
  /// version `version` of `model`. The spec must describe `net` - loading
  /// validates the checkpoint against a freshly built spec instance, so a
  /// mismatched spec is caught at load time. Throws if the version already
  /// exists or a name is invalid. Returns the version directory.
  std::string save_version(const std::string& model,
                           const std::string& version, nn::Sequential& net,
                           const ArchSpec& arch,
                           const tune::TuningCache* tuning = nullptr);

  bool has_version(const std::string& model, const std::string& version) const;
  std::vector<std::string> list_models() const;
  std::vector<std::string> list_versions(const std::string& model) const;

  /// Reads and returns the manifest after verifying the integrity (size +
  /// checksum) of every artifact it lists. Throws dsx::Error on a missing
  /// version, a foreign manifest format, or any integrity failure.
  VersionManifest manifest(const std::string& model,
                           const std::string& version) const;

  /// Rebuilds the architecture and loads the stored weights into it
  /// (integrity-verified). The returned model is the float training-form
  /// network; pass it to CompiledModel (or compile() below) to serve it.
  std::unique_ptr<nn::Sequential> load_model(const std::string& model,
                                             const std::string& version) const;

  /// Absolute path of the version's tuning-cache artifact, or "" when the
  /// version was saved without one.
  std::string tuning_cache_path(const std::string& model,
                                const std::string& version) const;

  /// Byte size of the version's stored weights artifact, read from the
  /// manifest WITHOUT re-verifying artifact contents - cheap size
  /// accounting for residency budget math (dsx::net decides what to evict
  /// before paying for a full integrity-checked compile()). Throws on a
  /// missing version or foreign manifest.
  int64_t version_weight_bytes(const std::string& model,
                               const std::string& version) const;

  /// One-call path from store to serving plan. When the version carries a
  /// tuning cache its records are merged into tune::Session::global() and
  /// the compile runs with Mode::kCached regardless of opts.tuning (kTune
  /// would both re-measure and try to rewrite the immutable artifact), so
  /// the plan warm-starts with zero measurements. Without a stored cache,
  /// opts.tuning is honored as-is.
  std::unique_ptr<serve::CompiledModel> compile(
      const std::string& model, const std::string& version,
      serve::CompileOptions opts = {}) const;

  /// Deletes one version's directory (and the model directory once its last
  /// version is gone). Throws if the version does not exist.
  void remove_version(const std::string& model, const std::string& version);

 private:
  std::string version_dir(const std::string& model,
                          const std::string& version) const;
  VersionManifest read_manifest_file(const std::string& path) const;
  /// Rebuild + weight load for an already integrity-verified manifest (so
  /// compile() verifies each artifact exactly once, not once per step).
  std::unique_ptr<nn::Sequential> load_from_manifest(
      const VersionManifest& m) const;

  std::string root_;
};

}  // namespace dsx::deploy
