#include "nn/serialize.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/error.hpp"

namespace fastchg::nn {

namespace {

constexpr std::uint32_t kMagic = 0xFA57C46E;  // "FastCHGNet"
constexpr std::uint32_t kVersion = 2;         // v2: trailing sections
constexpr std::uint32_t kMinVersion = 1;      // oldest readable format

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  FASTCHG_CHECK(is.good(), "checkpoint: truncated file");
  return v;
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  FASTCHG_CHECK(is.good(), "checkpoint: truncated file");
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  FASTCHG_CHECK(n < (1u << 20), "checkpoint: implausible string length");
  std::string s(static_cast<std::size_t>(n), '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  FASTCHG_CHECK(is.good(), "checkpoint: truncated string");
  return s;
}

void expect_eof(std::istream& is, const std::string& path) {
  is.peek();
  FASTCHG_CHECK(is.eof(), "checkpoint: '"
                              << path
                              << "' has trailing bytes after the last "
                                 "record (corrupt or mixed-up file)");
}

/// Read the parameter table shared by v1 and v2.
void read_parameter_table(Module& m, std::istream& is,
                          const std::string& path) {
  auto params = m.named_parameters();
  const std::uint64_t count = read_u64(is);
  FASTCHG_CHECK(count == params.size(),
                "checkpoint: holds " << count << " parameters, model has "
                                     << params.size());
  for (auto& [name, p] : params) {
    const std::string stored_name = read_string(is);
    FASTCHG_CHECK(stored_name == name, "checkpoint: parameter '"
                                           << stored_name
                                           << "' where model expects '"
                                           << name << "'");
    const std::uint64_t dim = read_u64(is);
    Shape shape;
    for (std::uint64_t d = 0; d < dim; ++d) {
      shape.push_back(static_cast<index_t>(read_u64(is)));
    }
    Tensor& dst = p.node()->value;
    FASTCHG_CHECK(same_shape(shape, dst.shape()),
                  "checkpoint: '" << name << "' has shape "
                                  << shape_str(shape) << ", model expects "
                                  << shape_str(dst.shape()));
    is.read(reinterpret_cast<char*>(dst.data()),
            static_cast<std::streamsize>(dst.numel() * sizeof(float)));
    FASTCHG_CHECK(is.good(), "checkpoint: truncated payload for '" << name
                                                                   << "'");
  }
  (void)path;
}

/// Open `path`, validate the header, and return the format version.
std::uint32_t open_checkpoint(std::ifstream& is, const std::string& path) {
  is.open(path, std::ios::binary);
  FASTCHG_CHECK(is.is_open(), "checkpoint: cannot open '" << path << "'");
  FASTCHG_CHECK(read_u32(is) == kMagic,
                "checkpoint: '" << path << "' is not a FastCHGNet checkpoint");
  const std::uint32_t version = read_u32(is);
  FASTCHG_CHECK(version >= kMinVersion && version <= kVersion,
                "checkpoint: '" << path << "' has format version " << version
                                << "; this build reads versions "
                                << kMinVersion << ".." << kVersion
                                << " (rebuild or re-save the checkpoint)");
  return version;
}

std::vector<Section> read_sections(std::istream& is) {
  std::vector<Section> sections;
  const std::uint64_t count = read_u64(is);
  FASTCHG_CHECK(count < (1u << 10), "checkpoint: implausible section count");
  for (std::uint64_t i = 0; i < count; ++i) {
    Section s;
    s.name = read_string(is);
    const std::uint64_t bytes = read_u64(is);
    FASTCHG_CHECK(bytes < (1ull << 32), "checkpoint: implausible section '"
                                            << s.name << "' size " << bytes);
    s.payload.resize(static_cast<std::size_t>(bytes));
    is.read(s.payload.data(), static_cast<std::streamsize>(bytes));
    FASTCHG_CHECK(is.good(),
                  "checkpoint: truncated section '" << s.name << "'");
    sections.push_back(std::move(s));
  }
  return sections;
}

}  // namespace

void save_parameters(const Module& m, const std::string& path,
                     const std::vector<Section>& sections) {
  // Atomic write: stream everything into `<path>.tmp`, then rename over the
  // destination only after the final flush succeeded.  POSIX rename within a
  // filesystem is atomic, so readers see either the old or the new file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    FASTCHG_CHECK(os.is_open(), "checkpoint: cannot open '" << tmp
                                                            << "' for write");
    auto params = m.named_parameters();
    write_u32(os, kMagic);
    write_u32(os, kVersion);
    write_u64(os, params.size());
    for (const auto& [name, p] : params) {
      write_string(os, name);
      const Tensor& t = p.value();
      write_u64(os, static_cast<std::uint64_t>(t.dim()));
      for (index_t d = 0; d < t.dim(); ++d) {
        write_u64(os, static_cast<std::uint64_t>(t.size(d)));
      }
      os.write(reinterpret_cast<const char*>(t.data()),
               static_cast<std::streamsize>(t.numel() * sizeof(float)));
    }
    write_u64(os, sections.size());
    for (const Section& s : sections) {
      write_string(os, s.name);
      write_string(os, s.payload);
    }
    os.flush();
    FASTCHG_CHECK(os.good(), "checkpoint: write to '" << tmp << "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    FASTCHG_CHECK(false, "checkpoint: cannot rename '" << tmp << "' to '"
                                                       << path << "'");
  }
}

void load_parameters(Module& m, const std::string& path) {
  std::ifstream is;
  const std::uint32_t version = open_checkpoint(is, path);
  read_parameter_table(m, is, path);
  if (version >= 2) read_sections(is);
  expect_eof(is, path);
}

std::vector<Section> load_checkpoint(Module& m, const std::string& path) {
  std::ifstream is;
  const std::uint32_t version = open_checkpoint(is, path);
  read_parameter_table(m, is, path);
  std::vector<Section> sections;
  if (version >= 2) sections = read_sections(is);
  expect_eof(is, path);
  return sections;
}

// ---------------------------------------------------------------------------
// Payload encode / decode
// ---------------------------------------------------------------------------

void PayloadWriter::raw(const void* p, std::size_t n) {
  buf_.append(static_cast<const char*>(p), n);
}

void PayloadWriter::put_u64(std::uint64_t v) { raw(&v, sizeof(v)); }
void PayloadWriter::put_f32(float v) { raw(&v, sizeof(v)); }

void PayloadWriter::put_string(const std::string& s) {
  put_u64(s.size());
  raw(s.data(), s.size());
}

void PayloadWriter::put_tensor(const Tensor& t) {
  put_u64(static_cast<std::uint64_t>(t.dim()));
  for (index_t d = 0; d < t.dim(); ++d) {
    put_u64(static_cast<std::uint64_t>(t.size(d)));
  }
  raw(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

void PayloadReader::raw(void* p, std::size_t n) {
  FASTCHG_CHECK(pos_ + n <= buf_.size(),
                "checkpoint: truncated section payload (want "
                    << n << " bytes at offset " << pos_ << " of "
                    << buf_.size() << ")");
  std::memcpy(p, buf_.data() + pos_, n);
  pos_ += n;
}

std::uint64_t PayloadReader::get_u64() {
  std::uint64_t v = 0;
  raw(&v, sizeof(v));
  return v;
}

float PayloadReader::get_f32() {
  float v = 0;
  raw(&v, sizeof(v));
  return v;
}

Tensor PayloadReader::get_tensor() {
  const std::uint64_t dim = get_u64();
  FASTCHG_CHECK(dim <= 8, "checkpoint: implausible tensor rank " << dim);
  Shape shape;
  for (std::uint64_t d = 0; d < dim; ++d) {
    shape.push_back(static_cast<index_t>(get_u64()));
  }
  Tensor t = Tensor::empty(shape);
  raw(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  return t;
}

}  // namespace fastchg::nn
