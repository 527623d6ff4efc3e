// Model checkpointing: save/load a Module's named parameters to a simple
// self-describing binary format (magic, count, then per-parameter name,
// shape, float32 payload).  Loading validates names and shapes strictly so
// a checkpoint can only be restored into a structurally identical model.
//
// Format v2 appends a list of named *sections* after the parameter table so
// callers can persist training state (optimizer moments, scheduler step,
// RNG streams) alongside the weights.  v1 files (weights only) stay
// readable; unknown sections are skipped by plain load_parameters, so the
// format is forward-compatible.  docs/checkpoint_format.md documents the
// byte layout.
//
// Writes are atomic: the file is written to `<path>.tmp` and renamed over
// `path` only once every byte landed, so a crash mid-save never corrupts a
// previous checkpoint.
#pragma once

#include <string>
#include <vector>

#include "nn/module.hpp"

namespace fastchg::nn {

/// A named opaque blob stored after the parameter table (format v2).
/// Encode/decode payloads with PayloadWriter / PayloadReader.
struct Section {
  std::string name;
  std::string payload;
};

/// Write all named parameters of `m` (plus optional trailing sections) to
/// `path` atomically.  Throws fastchg::Error on I/O failure.
void save_parameters(const Module& m, const std::string& path,
                     const std::vector<Section>& sections = {});

/// Restore parameters saved with save_parameters.  Accepts v1 and v2 files
/// (v2 sections are skipped).  Throws on missing file, corrupt or truncated
/// payload, trailing garbage, or any name/shape mismatch.
void load_parameters(Module& m, const std::string& path);

/// Like load_parameters but also returns the trailing sections (empty for a
/// v1 file).
std::vector<Section> load_checkpoint(Module& m, const std::string& path);

/// Little-endian append-only encoder for Section payloads.
class PayloadWriter {
 public:
  void put_u64(std::uint64_t v);
  void put_f32(float v);
  void put_string(const std::string& s);
  /// dim, sizes, then the float32 data.
  void put_tensor(const Tensor& t);

  std::string take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n);
  std::string buf_;
};

/// Decoder matching PayloadWriter; throws fastchg::Error on over-read.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& payload) : buf_(payload) {}

  std::uint64_t get_u64();
  float get_f32();
  Tensor get_tensor();

  /// True when every byte of the payload has been consumed.
  bool done() const { return pos_ == buf_.size(); }

 private:
  void raw(void* p, std::size_t n);
  const std::string& buf_;
  std::size_t pos_ = 0;
};

}  // namespace fastchg::nn
