/// \file
/// Minimal reverse-mode automatic differentiation over 2-D float tensors.
///
/// This is the substrate under the policy/value networks and the
/// Transformer/GRU encoders (§5.1, §5.4). Tensors are handles to graph
/// nodes; operations record a backward closure that scatters gradients to
/// the operands. Calling backward() on a scalar runs the tape in reverse
/// topological order. Under a NoGradGuard operations record nothing and
/// only compute values (policy inference).
///
/// Scope decisions: everything is a 2-D matrix [rows x cols] (sequences
/// are rows, features are columns); batching is done by looping, which is
/// the right trade-off for the single-core, small-model training runs in
/// this reproduction.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "support/rng.h"

namespace chehab::nn {

/// Autograd graph node. Users interact through Tensor.
struct Node
{
    int rows = 0;
    int cols = 0;
    std::vector<float> value;
    std::vector<float> grad;
    bool requires_grad = false;
    std::vector<std::shared_ptr<Node>> parents;
    /// Accumulates this node's grad into its parents' grads.
    std::function<void(Node&)> backward_fn;

    int size() const { return rows * cols; }
    float& at(int r, int c) { return value[static_cast<std::size_t>(r) * cols + c]; }
    float at(int r, int c) const
    {
        return value[static_cast<std::size_t>(r) * cols + c];
    }
    float& gradAt(int r, int c)
    {
        return grad[static_cast<std::size_t>(r) * cols + c];
    }
};

/// True unless a NoGradGuard is alive on this thread.
bool gradEnabled();

/// Inference mode for the current thread: while a guard is alive,
/// operations compute values only. Their results get no grad buffer, no
/// parents and no backward closure, so nothing can be differentiated
/// through them (backward() on such a result fails CHEHAB_ASSERT).
/// Leaf tensors (zeros/randn/fromData) are unaffected. Guards nest.
class NoGradGuard
{
  public:
    NoGradGuard();
    ~NoGradGuard();
    NoGradGuard(const NoGradGuard&) = delete;
    NoGradGuard& operator=(const NoGradGuard&) = delete;

  private:
    bool previous_;
};

/// Value-semantics handle to a Node; cheap to copy.
class Tensor
{
  public:
    Tensor() = default;

    /// Fresh tensor of zeros.
    static Tensor zeros(int rows, int cols, bool requires_grad = false);

    /// Gaussian init scaled by \p scale (e.g. Xavier-style 1/sqrt(fan_in)).
    static Tensor randn(int rows, int cols, Rng& rng, float scale,
                        bool requires_grad = true);

    /// Wrap explicit row-major data.
    static Tensor fromData(int rows, int cols, std::vector<float> data,
                           bool requires_grad = false);

    bool defined() const { return node_ != nullptr; }
    int rows() const { return node_->rows; }
    int cols() const { return node_->cols; }
    int size() const { return node_->size(); }

    const std::vector<float>& data() const { return node_->value; }
    std::vector<float>& mutableData() { return node_->value; }
    const std::vector<float>& grad() const { return node_->grad; }
    float item() const { return node_->value[0]; }
    float at(int r, int c) const { return node_->at(r, c); }

    bool requiresGrad() const { return node_->requires_grad; }

    /// Zero this tensor's gradient buffer. (Const: Tensor is a handle;
    /// this mutates the shared node, not the handle.)
    void zeroGrad() const;

    /// Run reverse-mode AD from this scalar (1x1) tensor.
    void backward() const;

    std::shared_ptr<Node> node() const { return node_; }

    /// Internal: wrap an existing node.
    explicit Tensor(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  private:
    std::shared_ptr<Node> node_;
};

/// \name Differentiable operations
/// @{
Tensor matmul(const Tensor& a, const Tensor& b);
Tensor add(const Tensor& a, const Tensor& b);          ///< Same shape.
Tensor addRowBroadcast(const Tensor& a, const Tensor& row); ///< a + 1·rowᵀ.
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mulElem(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float factor);
Tensor relu(const Tensor& a);
Tensor tanhT(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor transpose(const Tensor& a);

/// Row-wise softmax.
Tensor softmaxRows(const Tensor& a);

/// a + mask for a constant mask (use -1e9 entries to exclude masked
/// actions from a following softmax).
Tensor addConstMask(const Tensor& a, const std::vector<float>& mask);

/// Row-wise log-softmax (numerically stable); used for policy log-probs.
Tensor logSoftmaxRows(const Tensor& a);

/// Row-wise layer normalization with learnable gain/bias (1 x cols each).
Tensor layerNormRows(const Tensor& a, const Tensor& gain, const Tensor& bias,
                     float epsilon = 1e-5f);

/// Gather rows of \p table by \p ids (embedding lookup). Gradient
/// scatters back into the table.
Tensor embeddingLookup(const Tensor& table, const std::vector<int>& ids);

/// Select a single row as a 1 x cols tensor (differentiable slice).
Tensor sliceRow(const Tensor& a, int row);

/// Select a column range [begin, end) (differentiable slice).
Tensor sliceCols(const Tensor& a, int begin, int end);

/// Concatenate along columns (both operands must share rows).
Tensor concatCols(const Tensor& a, const Tensor& b);

/// Concatenate along rows (both operands must share cols).
Tensor concatRows(const Tensor& a, const Tensor& b);

/// Mean of all entries -> scalar.
Tensor meanAll(const Tensor& a);

/// Sum of all entries -> scalar.
Tensor sumAll(const Tensor& a);

/// Pick one entry as a scalar (differentiable).
Tensor pick(const Tensor& a, int r, int c);

/// Mean over rows of masked positions: rows with mask 0 are excluded.
/// Used to mean-pool non-PAD token embeddings.
Tensor maskedMeanRows(const Tensor& a, const std::vector<float>& row_mask);
/// @}

} // namespace chehab::nn
