#include "train/checkpoint.hpp"

#include "core/error.hpp"
#include "train/trainer.hpp"

namespace fastchg::train {

const nn::Section* find_section(const std::vector<nn::Section>& sections,
                                const std::string& name) {
  for (const nn::Section& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const nn::Section& require_section(const std::vector<nn::Section>& sections,
                                   const std::string& name) {
  const nn::Section* s = find_section(sections, name);
  FASTCHG_CHECK(s != nullptr,
                "checkpoint: missing required section '"
                    << name
                    << "' (weights-only file? use load_parameters instead "
                       "of resume)");
  return *s;
}

nn::Section adam_section(const Adam& opt) {
  nn::PayloadWriter w;
  w.put_u64(static_cast<std::uint64_t>(opt.step_count()));
  w.put_f32(opt.lr());
  const auto& m = opt.exp_avg();
  const auto& v = opt.exp_avg_sq();
  w.put_u64(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    w.put_tensor(m[i]);
    w.put_tensor(v[i]);
  }
  return {kSectionAdam, w.take()};
}

void restore_adam(Adam& opt, const nn::Section& s) {
  nn::PayloadReader r(s.payload);
  const auto t = static_cast<index_t>(r.get_u64());
  const float lr = r.get_f32();
  const std::uint64_t count = r.get_u64();
  std::vector<Tensor> m, v;
  m.reserve(static_cast<std::size_t>(count));
  v.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    m.push_back(r.get_tensor());
    v.push_back(r.get_tensor());
  }
  FASTCHG_CHECK(r.done(), "checkpoint: adam section has trailing bytes");
  opt.restore_state(std::move(m), std::move(v), t);
  opt.set_lr(lr);
}

nn::Section atom_ref_section(const model::CHGNet& net) {
  nn::PayloadWriter w;
  w.put_u64(net.has_atom_ref() ? 1 : 0);
  if (net.has_atom_ref()) w.put_tensor(net.atom_ref());
  return {kSectionAtomRef, w.take()};
}

void restore_atom_ref(model::CHGNet& net, const nn::Section& s) {
  nn::PayloadReader r(s.payload);
  if (r.get_u64() == 0) return;  // saved model had no AtomRef fitted yet
  const Tensor t = r.get_tensor();
  FASTCHG_CHECK(r.done(), "checkpoint: atom_ref section has trailing bytes");
  net.set_atom_ref(t.to_vector());
}

void put_guard(nn::PayloadWriter& w, const NonFiniteGuard& g) {
  w.put_f32(g.backoff_scale);
  w.put_u64(static_cast<std::uint64_t>(g.skipped_steps));
}

NonFiniteGuard get_guard(nn::PayloadReader& r) {
  // Braced initializers are evaluated in order: f32, then u64.
  return {r.get_f32(), static_cast<index_t>(r.get_u64())};
}

}  // namespace fastchg::train
