#include "autograd/variable.hpp"

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "autograd/ops.hpp"
#include "core/alloc.hpp"

namespace fastchg::ag {

namespace {

thread_local bool g_grad_enabled = true;

// Graph nodes ride the same allocator as the tensors they hold: in steady
// state a Node is a pool hit on creation and feeds the free list on graph
// teardown, alongside its value/grad storage.  Under NoGradGuard no inputs
// or backward closures are retained, so each op's Node + storage free as
// soon as the next op consumes them -- inference reuses blocks eagerly
// within the step instead of holding them to the step boundary.
std::shared_ptr<Node> new_node() {
  alloc::AllocatorPtr a = alloc::current_allocator();
  return std::allocate_shared<Node>(alloc::StlAdapter<Node>(std::move(a)));
}

}  // namespace

bool grad_enabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }

Var::Var(Tensor value, bool requires_grad) {
  node_ = new_node();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad && g_grad_enabled;
}

const Tensor& Var::value() const {
  FASTCHG_CHECK(defined(), "value() on undefined Var");
  return node_->value;
}

bool Var::requires_grad() const {
  return defined() && node_->requires_grad;
}

bool Var::is_leaf() const {
  FASTCHG_CHECK(defined(), "is_leaf() on undefined Var");
  return node_->backward_fn == nullptr;
}

Var Var::detach() const {
  FASTCHG_CHECK(defined(), "detach() on undefined Var");
  return Var(node_->value, /*requires_grad=*/false);
}

bool Var::has_grad() const { return defined() && node_->grad.defined(); }

const Tensor& Var::grad() const {
  FASTCHG_CHECK(has_grad(), "grad() on Var without gradient");
  return node_->grad;
}

Tensor& Var::mutable_grad() {
  FASTCHG_CHECK(defined(), "mutable_grad() on undefined Var");
  return node_->grad;
}

void Var::zero_grad() {
  if (defined() && node_->grad.defined()) node_->grad.fill_(0.0f);
}

void Var::set_grad(Tensor g) {
  FASTCHG_CHECK(defined(), "set_grad() on undefined Var");
  node_->grad = std::move(g);
}

Var Var::from_node(std::shared_ptr<Node> n) {
  Var v;
  v.node_ = std::move(n);
  return v;
}

Var make_op_node(const char* op, Tensor value, std::vector<Var> inputs,
                 BackwardFn backward_fn) {
  bool needs = false;
  if (g_grad_enabled) {
    for (const Var& in : inputs) needs = needs || in.requires_grad();
  }
  auto n = new_node();
  n->value = std::move(value);
  n->op = op;
  n->requires_grad = needs;
  if (needs) {
    n->inputs = std::move(inputs);
    n->backward_fn = std::move(backward_fn);
  }
  return Var::from_node(std::move(n));
}

namespace {

/// Iterative post-order DFS over the requires-grad subgraph; returns nodes
/// with inputs strictly before consumers.
std::vector<Node*> topo_order(Node* root) {
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* n;
    std::size_t next_input;
  };
  std::vector<Frame> stack;
  if (root->requires_grad) stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_input < f.n->inputs.size()) {
      const Var& in = f.n->inputs[f.next_input++];
      Node* child = in.node().get();
      if (child != nullptr && child->requires_grad &&
          visited.insert(child).second) {
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(f.n);
      stack.pop_back();
    }
  }
  return order;
}

/// Shared traversal: propagate gradients from `root` (seeded with `seed`)
/// and return the accumulator map.  When `leaves` is given, it receives
/// every leaf that received a gradient, in the deterministic order the
/// topo walk first reached it -- backward() iterates leaves through this
/// list rather than the pointer-hashed map, so the trailing
/// grad-accumulate sequence is identical across runs.
std::unordered_map<Node*, Var> propagate(const Var& root, Var seed,
                                         bool create_graph,
                                         std::vector<Node*>* leaves) {
  FASTCHG_CHECK(root.defined(), "backward on undefined Var");
  FASTCHG_CHECK(root.requires_grad(),
                "backward on Var that does not require grad");
  std::unordered_map<Node*, Var> grads;
  grads[root.node().get()] = std::move(seed);
  if (leaves != nullptr && !root.node()->backward_fn) {
    leaves->push_back(root.node().get());
  }

  std::vector<Node*> order = topo_order(root.node().get());
  // A first-order backward records no graph of its own: every closure runs
  // in no-grad mode, so the ops it calls retain nothing, and closures with a
  // first-order kernel (matmul, the fused gated activation) choose it.
  // create_graph leaves grad mode as the caller set it.
  std::optional<NoGradGuard> no_graph;
  if (!create_graph) no_graph.emplace();
  // Post-order puts producers first; walk consumers-to-producers.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    auto git = grads.find(n);
    if (git == grads.end()) continue;  // unreachable from root's grad flow
    if (!n->backward_fn) continue;     // leaf: accumulated grad stays in map
    Var gout = git->second;
    std::vector<Var> gins = n->backward_fn(gout);
    FASTCHG_CHECK(gins.size() == n->inputs.size(),
                  "op " << n->op << ": backward returned " << gins.size()
                        << " grads for " << n->inputs.size() << " inputs");
    for (std::size_t i = 0; i < gins.size(); ++i) {
      if (!gins[i].defined()) continue;
      Node* in = n->inputs[i].node().get();
      if (in == nullptr || !in->requires_grad) continue;
      FASTCHG_CHECK(same_shape(gins[i].shape(), in->value.shape()),
                    "op " << n->op << ": grad shape "
                          << shape_str(gins[i].shape()) << " vs input shape "
                          << shape_str(in->value.shape()));
      Var g = create_graph || !gins[i].requires_grad() ? gins[i]
                                                      : gins[i].detach();
      auto [slot, inserted] = grads.try_emplace(in, g);
      if (!inserted) slot->second = ops::add(slot->second, g);
      if (inserted && leaves != nullptr && !in->backward_fn) {
        leaves->push_back(in);
      }
    }
    // Free this node's incoming gradient early unless the caller needs the
    // graph of gradients (mirrors eager gradient-buffer release on GPU).
    // Note: erase by key -- try_emplace above may have rehashed the map.
    if (!create_graph) grads.erase(n);
  }
  return grads;
}

}  // namespace

void backward(const Var& root, Tensor grad_seed, bool create_graph) {
  if (!grad_seed.defined()) grad_seed = Tensor::ones(root.shape());
  FASTCHG_CHECK(same_shape(grad_seed.shape(), root.shape()),
                "backward: seed shape " << shape_str(grad_seed.shape())
                                        << " vs root "
                                        << shape_str(root.shape()));
  Var seed(std::move(grad_seed), /*requires_grad=*/false);
  std::vector<Node*> leaves;
  auto grads = propagate(root, std::move(seed), create_graph, &leaves);
  for (Node* node : leaves) {
    auto it = grads.find(node);
    if (it == grads.end()) continue;
    const Var& g = it->second;
    if (!node->grad.defined()) {
      // First touch: transient leaves (fresh positions/strain each step)
      // land here every time.
      node->grad = g.value().clone();
    } else {
      node->grad.add_(g.value());
    }
  }
}

std::vector<Var> grad(const Var& output, const std::vector<Var>& inputs,
                      Var grad_output, bool create_graph) {
  if (!grad_output.defined()) {
    grad_output = Var(Tensor::ones(output.shape()), /*requires_grad=*/false);
  }
  // create_graph implies the propagation itself must keep per-node gradient
  // vars alive, so propagate() skips the early-release path.
  auto grads = propagate(output, grad_output, create_graph,
                         /*leaves=*/nullptr);
  std::vector<Var> out;
  out.reserve(inputs.size());
  for (const Var& in : inputs) {
    auto it = grads.find(in.node().get());
    out.push_back(it == grads.end() ? Var() : it->second);
  }
  return out;
}

}  // namespace fastchg::ag
