// Named model checkpoints.
//
// Format (version 2): magic "DSXK", int64 format version, uint64 param
// count, then per parameter: uint32 name length, name bytes, tensor
// (tensor/serialize format); then uint64 buffer count and the layers'
// non-trainable buffers (Layer::collect_buffers - BatchNorm running
// statistics) in the same entry layout. Loading validates version, counts,
// names and shapes against the live model, so architecture drift is caught
// instead of silently mis-assigning weights. Version-1 files (magic "DSXC",
// parameters only) and foreign versions are rejected with an error naming
// the version, never read as if they were current.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/layer.hpp"

namespace dsx::nn {

void save_checkpoint(Layer& model, std::ostream& os);
void save_checkpoint_file(Layer& model, const std::string& path);

/// Copies checkpointed values into the model's parameters and buffers.
/// Throws dsx::Error on a foreign format version or any count/name/shape
/// mismatch.
void load_checkpoint(Layer& model, std::istream& is);
void load_checkpoint_file(Layer& model, const std::string& path);

}  // namespace dsx::nn
