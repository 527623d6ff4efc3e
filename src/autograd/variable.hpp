// Tape-based reverse-mode autograd with support for higher-order derivatives.
//
// Reference CHGNet predicts forces as F = -dE/dx and stress as the strain
// derivative of E, then trains on a loss over those derivatives -- so the
// weight update needs d(dE/dx)/dw, a *second-order* derivative.  We get this
// the same way PyTorch does: every primitive op's backward is itself
// expressed in terms of the public differentiable ops, so calling
// grad(..., /*create_graph=*/true) produces gradient Variables that carry
// their own graph and can be differentiated again.
//
// Backward closures run without recording a graph unless create_graph is
// set: a first-order backward()/grad() runs every closure under
// NoGradGuard, so the ops it calls retain no inputs or closures, and ops
// with a dedicated first-order kernel (matmul's transpose-free weight
// gradient, the fused gated activation's backward) choose it when
// grad_enabled() is false.  The op-composed backward runs only for
// create_graph=true.
//
// Ownership: a Var is a cheap shared handle to a Node.  A Node keeps its
// input Vars alive only while it requires grad, so releasing the loss Var
// after backward() frees the whole graph (and the memory tracker observes
// exactly the retained-intermediate footprint the paper's Fig. 8c measures).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/tensor.hpp"

namespace fastchg::ag {

struct Node;

/// Shared handle to an autograd graph node.  Value semantics; copying shares.
class Var {
 public:
  Var() = default;
  /// Wrap a tensor as a graph leaf.
  explicit Var(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  bool requires_grad() const;

  const Shape& shape() const { return value().shape(); }
  index_t numel() const { return value().numel(); }
  index_t size(index_t d) const { return value().size(d); }
  float item() const { return value().item(); }

  /// A leaf has no backward function (parameters, constants, detached vars).
  bool is_leaf() const;

  /// New leaf sharing this value, cut off from the graph.
  Var detach() const;

  /// Leaf-gradient access (populated by backward()).
  bool has_grad() const;
  const Tensor& grad() const;
  Tensor& mutable_grad();
  void zero_grad();
  void set_grad(Tensor g);

  std::shared_ptr<Node> node() const { return node_; }
  static Var from_node(std::shared_ptr<Node> n);

 private:
  std::shared_ptr<Node> node_;
};

/// Backward function: maps the incoming gradient to gradients for each input
/// (an undefined Var means "no gradient flows to that input").
using BackwardFn = std::function<std::vector<Var>(const Var& grad_out)>;

struct Node {
  Tensor value;
  bool requires_grad = false;
  const char* op = "leaf";
  std::vector<Var> inputs;   // retained only while requires_grad
  BackwardFn backward_fn;    // null for leaves
  Tensor grad;               // leaf gradient accumulator (undefined until set)
};

/// Thread-local grad mode (mirrors torch.no_grad()).  While disabled, ops
/// produce constants: no graph is recorded and intermediates die eagerly,
/// which is what makes inference (MD, evaluation) cheap.
bool grad_enabled();

class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// Create an interior graph node.  Used by every op implementation.
Var make_op_node(const char* op, Tensor value, std::vector<Var> inputs,
                 BackwardFn backward_fn);

/// Accumulate d(root)/d(leaf) into every reachable leaf's .grad tensor.
/// `grad_seed` defaults to ones (root is typically the scalar loss).
void backward(const Var& root, Tensor grad_seed = {},
              bool create_graph = false);

/// torch.autograd.grad analogue: derivative of `output` w.r.t. `inputs`
/// without touching leaf .grad accumulators.  With create_graph=true the
/// returned Vars are differentiable (this is the force/stress path).
/// Inputs not reachable from `output` yield undefined Vars.
std::vector<Var> grad(const Var& output, const std::vector<Var>& inputs,
                      Var grad_output = {}, bool create_graph = false);

}  // namespace fastchg::ag
