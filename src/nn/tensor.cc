#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <unordered_set>
#include <utility>

#include "support/error.h"

namespace chehab::nn {

namespace {

thread_local bool t_grad_enabled = true;

std::shared_ptr<Node>
makeRaw(int rows, int cols, bool requires_grad)
{
    auto node = std::make_shared<Node>();
    node->rows = rows;
    node->cols = cols;
    node->value.assign(static_cast<std::size_t>(rows) * cols, 0.0f);
    node->grad.assign(static_cast<std::size_t>(rows) * cols, 0.0f);
    node->requires_grad = requires_grad;
    return node;
}

/// Result node whose gradient flows back to its parents; under a
/// NoGradGuard a bare value node instead.
template <typename Backward>
std::shared_ptr<Node>
makeResult(int rows, int cols,
           std::initializer_list<std::shared_ptr<Node>> parents,
           Backward&& backward_fn)
{
    if (!t_grad_enabled) {
        auto node = std::make_shared<Node>();
        node->rows = rows;
        node->cols = cols;
        node->value.assign(static_cast<std::size_t>(rows) * cols, 0.0f);
        return node;
    }
    auto node = makeRaw(rows, cols, true);
    node->parents = parents;
    node->backward_fn = std::forward<Backward>(backward_fn);
    return node;
}

/// A node backward() may write gradients into.
bool
hasGrad(const Node& node)
{
    return node.grad.size() == node.value.size();
}

} // namespace

bool
gradEnabled()
{
    return t_grad_enabled;
}

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled)
{
    t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard()
{
    t_grad_enabled = previous_;
}

Tensor
Tensor::zeros(int rows, int cols, bool requires_grad)
{
    return Tensor(makeRaw(rows, cols, requires_grad));
}

Tensor
Tensor::randn(int rows, int cols, Rng& rng, float scale, bool requires_grad)
{
    auto node = makeRaw(rows, cols, requires_grad);
    for (auto& v : node->value) {
        v = static_cast<float>(rng.normal()) * scale;
    }
    return Tensor(node);
}

Tensor
Tensor::fromData(int rows, int cols, std::vector<float> data,
                 bool requires_grad)
{
    CHEHAB_ASSERT(static_cast<int>(data.size()) == rows * cols,
                  "fromData size mismatch");
    auto node = makeRaw(rows, cols, requires_grad);
    node->value = std::move(data);
    return Tensor(node);
}

void
Tensor::zeroGrad() const
{
    std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
}

void
Tensor::backward() const
{
    CHEHAB_ASSERT(node_->size() == 1, "backward() needs a scalar");
    CHEHAB_ASSERT(hasGrad(*node_),
                  "backward() on a tensor built under NoGradGuard");
    // Topological order via iterative DFS.
    std::vector<Node*> order;
    std::unordered_set<Node*> visited;
    std::vector<std::pair<Node*, std::size_t>> stack;
    stack.emplace_back(node_.get(), 0);
    visited.insert(node_.get());
    while (!stack.empty()) {
        auto& [node, next_child] = stack.back();
        if (next_child < node->parents.size()) {
            Node* parent = node->parents[next_child++].get();
            CHEHAB_ASSERT(hasGrad(*parent),
                          "backward() through a tensor built under "
                          "NoGradGuard");
            if (visited.insert(parent).second) {
                stack.emplace_back(parent, 0);
            }
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }
    node_->grad[0] = 1.0f;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        if ((*it)->backward_fn) (*it)->backward_fn(**it);
    }
}

// ---------------------------------------------------------------------
// Operations.
// ---------------------------------------------------------------------

Tensor
matmul(const Tensor& a, const Tensor& b)
{
    CHEHAB_ASSERT(a.cols() == b.rows(), "matmul shape mismatch");
    const int m = a.rows();
    const int k = a.cols();
    const int n = b.cols();
    auto pa = a.node();
    auto pb = b.node();
    auto out = makeResult(m, n, {pa, pb}, [m, k, n, pa, pb](Node& self) {
        // dA = dC Bᵀ ; dB = Aᵀ dC.
        for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
                const float g = self.gradAt(i, j);
                if (g == 0.0f) continue;
                for (int t = 0; t < k; ++t) {
                    pa->gradAt(i, t) += g * pb->at(t, j);
                    pb->gradAt(t, j) += g * pa->at(i, t);
                }
            }
        }
    });
    for (int i = 0; i < m; ++i) {
        for (int t = 0; t < k; ++t) {
            const float av = pa->at(i, t);
            if (av == 0.0f) continue;
            for (int j = 0; j < n; ++j) {
                out->at(i, j) += av * pb->at(t, j);
            }
        }
    }
    return Tensor(out);
}

Tensor
add(const Tensor& a, const Tensor& b)
{
    CHEHAB_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                  "add shape mismatch");
    auto pa = a.node();
    auto pb = b.node();
    auto out = makeResult(a.rows(), a.cols(), {pa, pb}, [pa, pb](Node& self) {
        for (int i = 0; i < self.size(); ++i) {
            pa->grad[static_cast<std::size_t>(i)] += self.grad[static_cast<std::size_t>(i)];
            pb->grad[static_cast<std::size_t>(i)] += self.grad[static_cast<std::size_t>(i)];
        }
    });
    for (int i = 0; i < out->size(); ++i) {
        out->value[static_cast<std::size_t>(i)] =
            pa->value[static_cast<std::size_t>(i)] +
            pb->value[static_cast<std::size_t>(i)];
    }
    return Tensor(out);
}

Tensor
addRowBroadcast(const Tensor& a, const Tensor& row)
{
    CHEHAB_ASSERT(row.rows() == 1 && row.cols() == a.cols(),
                  "addRowBroadcast shape mismatch");
    auto pa = a.node();
    auto pr = row.node();
    const int rows = a.rows();
    const int cols = a.cols();
    auto out = makeResult(rows, cols, {pa, pr},
                          [rows, cols, pa, pr](Node& self) {
        for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < cols; ++j) {
                const float g = self.gradAt(i, j);
                pa->gradAt(i, j) += g;
                pr->gradAt(0, j) += g;
            }
        }
    });
    for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < cols; ++j) {
            out->at(i, j) = pa->at(i, j) + pr->at(0, j);
        }
    }
    return Tensor(out);
}

Tensor
sub(const Tensor& a, const Tensor& b)
{
    return add(a, scale(b, -1.0f));
}

Tensor
mulElem(const Tensor& a, const Tensor& b)
{
    CHEHAB_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                  "mulElem shape mismatch");
    auto pa = a.node();
    auto pb = b.node();
    auto out = makeResult(a.rows(), a.cols(), {pa, pb}, [pa, pb](Node& self) {
        for (int i = 0; i < self.size(); ++i) {
            const auto idx = static_cast<std::size_t>(i);
            pa->grad[idx] += self.grad[idx] * pb->value[idx];
            pb->grad[idx] += self.grad[idx] * pa->value[idx];
        }
    });
    for (int i = 0; i < out->size(); ++i) {
        const auto idx = static_cast<std::size_t>(i);
        out->value[idx] = pa->value[idx] * pb->value[idx];
    }
    return Tensor(out);
}

Tensor
scale(const Tensor& a, float factor)
{
    auto pa = a.node();
    auto out = makeResult(a.rows(), a.cols(), {pa}, [pa, factor](Node& self) {
        for (int i = 0; i < self.size(); ++i) {
            pa->grad[static_cast<std::size_t>(i)] +=
                factor * self.grad[static_cast<std::size_t>(i)];
        }
    });
    for (int i = 0; i < out->size(); ++i) {
        out->value[static_cast<std::size_t>(i)] =
            factor * pa->value[static_cast<std::size_t>(i)];
    }
    return Tensor(out);
}

namespace {

template <typename Fn, typename DFn>
Tensor
unaryOp(const Tensor& a, Fn fn, DFn dfn)
{
    auto pa = a.node();
    auto out = makeResult(a.rows(), a.cols(), {pa}, [pa, dfn](Node& self) {
        for (int i = 0; i < self.size(); ++i) {
            const auto idx = static_cast<std::size_t>(i);
            pa->grad[idx] += self.grad[idx] * dfn(pa->value[idx],
                                                  self.value[idx]);
        }
    });
    for (int i = 0; i < out->size(); ++i) {
        const auto idx = static_cast<std::size_t>(i);
        out->value[idx] = fn(pa->value[idx]);
    }
    return Tensor(out);
}

} // namespace

Tensor
relu(const Tensor& a)
{
    return unaryOp(
        a, [](float x) { return x > 0.0f ? x : 0.0f; },
        [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor
tanhT(const Tensor& a)
{
    return unaryOp(
        a, [](float x) { return std::tanh(x); },
        [](float, float y) { return 1.0f - y * y; });
}

Tensor
sigmoid(const Tensor& a)
{
    return unaryOp(
        a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
        [](float, float y) { return y * (1.0f - y); });
}

Tensor
transpose(const Tensor& a)
{
    auto pa = a.node();
    const int rows = a.rows();
    const int cols = a.cols();
    auto out = makeResult(cols, rows, {pa}, [rows, cols, pa](Node& self) {
        for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < cols; ++j) {
                pa->gradAt(i, j) += self.gradAt(j, i);
            }
        }
    });
    for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < cols; ++j) out->at(j, i) = pa->at(i, j);
    }
    return Tensor(out);
}

Tensor
softmaxRows(const Tensor& a)
{
    auto pa = a.node();
    const int rows = a.rows();
    const int cols = a.cols();
    auto out = makeResult(rows, cols, {pa}, [rows, cols, pa](Node& self) {
        for (int i = 0; i < rows; ++i) {
            float dot = 0.0f;
            for (int j = 0; j < cols; ++j) {
                dot += self.gradAt(i, j) * self.at(i, j);
            }
            for (int j = 0; j < cols; ++j) {
                pa->gradAt(i, j) +=
                    self.at(i, j) * (self.gradAt(i, j) - dot);
            }
        }
    });
    for (int i = 0; i < rows; ++i) {
        float max_v = pa->at(i, 0);
        for (int j = 1; j < cols; ++j) max_v = std::max(max_v, pa->at(i, j));
        float denom = 0.0f;
        for (int j = 0; j < cols; ++j) {
            out->at(i, j) = std::exp(pa->at(i, j) - max_v);
            denom += out->at(i, j);
        }
        for (int j = 0; j < cols; ++j) out->at(i, j) /= denom;
    }
    return Tensor(out);
}

Tensor
addConstMask(const Tensor& a, const std::vector<float>& mask)
{
    CHEHAB_ASSERT(static_cast<int>(mask.size()) == a.size(),
                  "mask size mismatch");
    auto pa = a.node();
    auto out = makeResult(a.rows(), a.cols(), {pa}, [pa](Node& self) {
        for (int i = 0; i < self.size(); ++i) {
            pa->grad[static_cast<std::size_t>(i)] +=
                self.grad[static_cast<std::size_t>(i)];
        }
    });
    for (int i = 0; i < out->size(); ++i) {
        const auto idx = static_cast<std::size_t>(i);
        out->value[idx] = pa->value[idx] + mask[idx];
    }
    return Tensor(out);
}

Tensor
logSoftmaxRows(const Tensor& a)
{
    auto pa = a.node();
    const int rows = a.rows();
    const int cols = a.cols();
    auto out = makeResult(rows, cols, {pa}, [rows, cols, pa](Node& self) {
        for (int i = 0; i < rows; ++i) {
            float grad_sum = 0.0f;
            for (int j = 0; j < cols; ++j) grad_sum += self.gradAt(i, j);
            for (int j = 0; j < cols; ++j) {
                pa->gradAt(i, j) += self.gradAt(i, j) -
                                    std::exp(self.at(i, j)) * grad_sum;
            }
        }
    });
    for (int i = 0; i < rows; ++i) {
        float max_v = pa->at(i, 0);
        for (int j = 1; j < cols; ++j) max_v = std::max(max_v, pa->at(i, j));
        float denom = 0.0f;
        for (int j = 0; j < cols; ++j) {
            denom += std::exp(pa->at(i, j) - max_v);
        }
        const float log_denom = std::log(denom) + max_v;
        for (int j = 0; j < cols; ++j) {
            out->at(i, j) = pa->at(i, j) - log_denom;
        }
    }
    return Tensor(out);
}

Tensor
layerNormRows(const Tensor& a, const Tensor& gain, const Tensor& bias,
              float epsilon)
{
    CHEHAB_ASSERT(gain.rows() == 1 && gain.cols() == a.cols() &&
                      bias.rows() == 1 && bias.cols() == a.cols(),
                  "layerNorm parameter shape mismatch");
    auto pa = a.node();
    auto pg = gain.node();
    auto pb = bias.node();
    const int rows = a.rows();
    const int cols = a.cols();

    // Cache per-row statistics for the backward pass.
    auto mean = std::make_shared<std::vector<float>>(rows);
    auto inv_std = std::make_shared<std::vector<float>>(rows);

    auto out = makeResult(
        rows, cols, {pa, pg, pb},
        [rows, cols, pa, pg, pb, mean, inv_std](Node& self) {
            for (int i = 0; i < rows; ++i) {
                const float istd = (*inv_std)[static_cast<std::size_t>(i)];
                const float mu = (*mean)[static_cast<std::size_t>(i)];
                float sum_gy = 0.0f;
                float sum_gyx = 0.0f;
                for (int j = 0; j < cols; ++j) {
                    const float gy = self.gradAt(i, j) * pg->at(0, j);
                    const float xhat = (pa->at(i, j) - mu) * istd;
                    sum_gy += gy;
                    sum_gyx += gy * xhat;
                    pg->gradAt(0, j) += self.gradAt(i, j) * xhat;
                    pb->gradAt(0, j) += self.gradAt(i, j);
                }
                for (int j = 0; j < cols; ++j) {
                    const float gy = self.gradAt(i, j) * pg->at(0, j);
                    const float xhat = (pa->at(i, j) - mu) * istd;
                    pa->gradAt(i, j) +=
                        istd * (gy - (sum_gy + xhat * sum_gyx) /
                                         static_cast<float>(cols));
                }
            }
        });

    for (int i = 0; i < rows; ++i) {
        float mu = 0.0f;
        for (int j = 0; j < cols; ++j) mu += pa->at(i, j);
        mu /= static_cast<float>(cols);
        float var = 0.0f;
        for (int j = 0; j < cols; ++j) {
            const float d = pa->at(i, j) - mu;
            var += d * d;
        }
        var /= static_cast<float>(cols);
        const float istd = 1.0f / std::sqrt(var + epsilon);
        (*mean)[static_cast<std::size_t>(i)] = mu;
        (*inv_std)[static_cast<std::size_t>(i)] = istd;
        for (int j = 0; j < cols; ++j) {
            out->at(i, j) =
                pg->at(0, j) * (pa->at(i, j) - mu) * istd + pb->at(0, j);
        }
    }
    return Tensor(out);
}

Tensor
embeddingLookup(const Tensor& table, const std::vector<int>& ids)
{
    auto pt = table.node();
    const int cols = table.cols();
    const int rows = static_cast<int>(ids.size());
    auto ids_copy = std::make_shared<std::vector<int>>(ids);
    auto out = makeResult(rows, cols, {pt},
                          [rows, cols, pt, ids_copy](Node& self) {
        for (int i = 0; i < rows; ++i) {
            const int id = (*ids_copy)[static_cast<std::size_t>(i)];
            for (int j = 0; j < cols; ++j) {
                pt->gradAt(id, j) += self.gradAt(i, j);
            }
        }
    });
    for (int i = 0; i < rows; ++i) {
        const int id = ids[static_cast<std::size_t>(i)];
        CHEHAB_ASSERT(id >= 0 && id < table.rows(), "embedding id range");
        for (int j = 0; j < cols; ++j) out->at(i, j) = pt->at(id, j);
    }
    return Tensor(out);
}

Tensor
sliceRow(const Tensor& a, int row)
{
    CHEHAB_ASSERT(row >= 0 && row < a.rows(), "sliceRow range");
    auto pa = a.node();
    const int cols = a.cols();
    auto out = makeResult(1, cols, {pa}, [row, cols, pa](Node& self) {
        for (int j = 0; j < cols; ++j) {
            pa->gradAt(row, j) += self.gradAt(0, j);
        }
    });
    for (int j = 0; j < cols; ++j) out->at(0, j) = pa->at(row, j);
    return Tensor(out);
}

Tensor
sliceCols(const Tensor& a, int begin, int end)
{
    CHEHAB_ASSERT(begin >= 0 && begin < end && end <= a.cols(),
                  "sliceCols range");
    auto pa = a.node();
    const int rows = a.rows();
    const int width = end - begin;
    auto out = makeResult(rows, width, {pa},
                          [rows, width, begin, pa](Node& self) {
        for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < width; ++j) {
                pa->gradAt(i, begin + j) += self.gradAt(i, j);
            }
        }
    });
    for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < width; ++j) out->at(i, j) = pa->at(i, begin + j);
    }
    return Tensor(out);
}

Tensor
concatCols(const Tensor& a, const Tensor& b)
{
    CHEHAB_ASSERT(a.rows() == b.rows(), "concatCols shape mismatch");
    auto pa = a.node();
    auto pb = b.node();
    const int rows = a.rows();
    const int ca = a.cols();
    const int cb = b.cols();
    auto out = makeResult(rows, ca + cb, {pa, pb},
                          [rows, ca, cb, pa, pb](Node& self) {
        for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < ca; ++j) {
                pa->gradAt(i, j) += self.gradAt(i, j);
            }
            for (int j = 0; j < cb; ++j) {
                pb->gradAt(i, j) += self.gradAt(i, ca + j);
            }
        }
    });
    for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < ca; ++j) out->at(i, j) = pa->at(i, j);
        for (int j = 0; j < cb; ++j) out->at(i, ca + j) = pb->at(i, j);
    }
    return Tensor(out);
}

Tensor
concatRows(const Tensor& a, const Tensor& b)
{
    CHEHAB_ASSERT(a.cols() == b.cols(), "concatRows shape mismatch");
    auto pa = a.node();
    auto pb = b.node();
    const int ra = a.rows();
    const int rb = b.rows();
    const int cols = a.cols();
    auto out = makeResult(ra + rb, cols, {pa, pb},
                          [ra, rb, cols, pa, pb](Node& self) {
        for (int i = 0; i < ra; ++i) {
            for (int j = 0; j < cols; ++j) {
                pa->gradAt(i, j) += self.gradAt(i, j);
            }
        }
        for (int i = 0; i < rb; ++i) {
            for (int j = 0; j < cols; ++j) {
                pb->gradAt(i, j) += self.gradAt(ra + i, j);
            }
        }
    });
    for (int i = 0; i < ra; ++i) {
        for (int j = 0; j < cols; ++j) out->at(i, j) = pa->at(i, j);
    }
    for (int i = 0; i < rb; ++i) {
        for (int j = 0; j < cols; ++j) out->at(ra + i, j) = pb->at(i, j);
    }
    return Tensor(out);
}

Tensor
meanAll(const Tensor& a)
{
    auto pa = a.node();
    const float inv_n = 1.0f / static_cast<float>(a.size());
    auto out = makeResult(1, 1, {pa}, [pa, inv_n](Node& self) {
        for (auto& g : pa->grad) g += self.grad[0] * inv_n;
    });
    float total = 0.0f;
    for (float v : pa->value) total += v;
    out->value[0] = total * inv_n;
    return Tensor(out);
}

Tensor
sumAll(const Tensor& a)
{
    auto pa = a.node();
    auto out = makeResult(1, 1, {pa}, [pa](Node& self) {
        for (auto& g : pa->grad) g += self.grad[0];
    });
    float total = 0.0f;
    for (float v : pa->value) total += v;
    out->value[0] = total;
    return Tensor(out);
}

Tensor
pick(const Tensor& a, int r, int c)
{
    CHEHAB_ASSERT(r >= 0 && r < a.rows() && c >= 0 && c < a.cols(),
                  "pick range");
    auto pa = a.node();
    auto out = makeResult(1, 1, {pa}, [r, c, pa](Node& self) {
        pa->gradAt(r, c) += self.grad[0];
    });
    out->value[0] = pa->at(r, c);
    return Tensor(out);
}

Tensor
maskedMeanRows(const Tensor& a, const std::vector<float>& row_mask)
{
    CHEHAB_ASSERT(static_cast<int>(row_mask.size()) == a.rows(),
                  "row mask size mismatch");
    auto pa = a.node();
    const int rows = a.rows();
    const int cols = a.cols();
    float count = 0.0f;
    for (float m : row_mask) count += m;
    if (count == 0.0f) count = 1.0f;
    const float inv = 1.0f / count;
    auto mask = std::make_shared<std::vector<float>>(row_mask);
    auto out = makeResult(1, cols, {pa},
                          [rows, cols, pa, mask, inv](Node& self) {
        for (int i = 0; i < rows; ++i) {
            const float m = (*mask)[static_cast<std::size_t>(i)];
            if (m == 0.0f) continue;
            for (int j = 0; j < cols; ++j) {
                pa->gradAt(i, j) += self.gradAt(0, j) * inv * m;
            }
        }
    });
    for (int i = 0; i < rows; ++i) {
        const float m = row_mask[static_cast<std::size_t>(i)];
        if (m == 0.0f) continue;
        for (int j = 0; j < cols; ++j) {
            out->at(0, j) += pa->at(i, j) * inv * m;
        }
    }
    return Tensor(out);
}

} // namespace chehab::nn
