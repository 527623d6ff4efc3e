// Adam optimizer (paper Sec. IV: 'Adam' with initial LR 3e-4).
#pragma once

#include <vector>

#include "autograd/variable.hpp"

namespace fastchg::train {

using ag::Var;

class Adam {
 public:
  explicit Adam(std::vector<Var> params, float lr = 3e-4f,
                float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f);

  /// Apply one update from the parameters' accumulated .grad tensors.
  void step();
  void zero_grad();

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }
  index_t step_count() const { return t_; }

  /// Checkpoint access: first/second moment estimates in parameter order.
  const std::vector<Tensor>& exp_avg() const { return m_; }
  const std::vector<Tensor>& exp_avg_sq() const { return v_; }
  /// Restore moments and the bias-correction step count saved from another
  /// Adam over a structurally identical parameter list.
  void restore_state(std::vector<Tensor> m, std::vector<Tensor> v, index_t t);

 private:
  std::vector<Var> params_;
  std::vector<Tensor> m_, v_;
  float lr_, beta1_, beta2_, eps_;
  index_t t_ = 0;
};

}  // namespace fastchg::train
