// Full-state training checkpoints (format v2, see docs/checkpoint_format.md).
//
// nn::serialize handles the weights; the section codecs here persist
// everything else a bit-identical resume needs: Adam first/second moments
// and step count, scheduler position (global step + next epoch), the
// non-finite guard's state, and the model's AtomRef table.  Trainer and
// DataParallelTrainer compose these into their save_checkpoint / resume
// paths.
#pragma once

#include <string>
#include <vector>

#include "chgnet/model.hpp"
#include "nn/serialize.hpp"
#include "train/adam.hpp"

namespace fastchg::train {

struct NonFiniteGuard;

/// Section names used by the trainers.
inline constexpr const char* kSectionAdam = "adam";
inline constexpr const char* kSectionTrainer = "trainer";
inline constexpr const char* kSectionAtomRef = "atom_ref";
inline constexpr const char* kSectionElastic = "elastic";

/// Find a section by name; nullptr when absent.
const nn::Section* find_section(const std::vector<nn::Section>& sections,
                                const std::string& name);
/// Like find_section but throws a descriptive error when absent (used for
/// sections a resume cannot proceed without).
const nn::Section& require_section(const std::vector<nn::Section>& sections,
                                   const std::string& name);

/// Optimizer moments + bias-correction step + current LR.
nn::Section adam_section(const Adam& opt);
void restore_adam(Adam& opt, const nn::Section& s);

/// AtomRef reference-energy table (encodes "absent" too, so a resume never
/// silently refits a different baseline).
nn::Section atom_ref_section(const model::CHGNet& net);
void restore_atom_ref(model::CHGNet& net, const nn::Section& s);

/// Non-finite guard state as `f32 backoff_scale`, `u64 skipped_steps`,
/// written in place inside the `trainer` and `elastic` sections.
void put_guard(nn::PayloadWriter& w, const NonFiniteGuard& g);
NonFiniteGuard get_guard(nn::PayloadReader& r);

}  // namespace fastchg::train
