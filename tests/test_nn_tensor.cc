/// \file
/// Autograd correctness: finite-difference gradient checks on every
/// differentiable operation, plus shape/value unit tests and the
/// graph-free (NoGradGuard) mode.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <thread>

#include "nn/tensor.h"
#include "support/rng.h"

namespace chehab::nn {
namespace {

/// Generic finite-difference check: builds loss(inputs) -> scalar,
/// compares analytic grads of each input against central differences.
void
checkGradients(std::vector<Tensor> inputs,
               const std::function<Tensor(const std::vector<Tensor>&)>& loss,
               float tolerance = 2e-2f)
{
    Tensor out = loss(inputs);
    ASSERT_EQ(out.size(), 1);
    for (Tensor& t : inputs) t.zeroGrad();
    out = loss(inputs);
    out.backward();

    const float eps = 1e-3f;
    for (std::size_t which = 0; which < inputs.size(); ++which) {
        Tensor& t = inputs[which];
        for (int i = 0; i < t.size(); ++i) {
            const float saved = t.mutableData()[static_cast<std::size_t>(i)];
            t.mutableData()[static_cast<std::size_t>(i)] = saved + eps;
            const float up = loss(inputs).item();
            t.mutableData()[static_cast<std::size_t>(i)] = saved - eps;
            const float down = loss(inputs).item();
            t.mutableData()[static_cast<std::size_t>(i)] = saved;
            const float numeric = (up - down) / (2.0f * eps);
            const float analytic = t.grad()[static_cast<std::size_t>(i)];
            EXPECT_NEAR(analytic, numeric,
                        tolerance * std::max(1.0f, std::fabs(numeric)))
                << "input " << which << " element " << i;
        }
    }
}

Tensor
randomTensor(int rows, int cols, std::uint64_t seed)
{
    Rng rng(seed);
    return Tensor::randn(rows, cols, rng, 0.7f, true);
}

TEST(TensorTest, ZerosAndFromData)
{
    const Tensor z = Tensor::zeros(2, 3);
    EXPECT_EQ(z.rows(), 2);
    EXPECT_EQ(z.cols(), 3);
    for (float v : z.data()) EXPECT_EQ(v, 0.0f);

    const Tensor d = Tensor::fromData(2, 2, {1, 2, 3, 4});
    EXPECT_EQ(d.at(0, 1), 2.0f);
    EXPECT_EQ(d.at(1, 0), 3.0f);
}

TEST(TensorTest, MatmulValues)
{
    const Tensor a = Tensor::fromData(2, 2, {1, 2, 3, 4});
    const Tensor b = Tensor::fromData(2, 2, {5, 6, 7, 8});
    const Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(TensorTest, SoftmaxRowsSumToOne)
{
    const Tensor s = softmaxRows(randomTensor(3, 5, 1));
    for (int i = 0; i < 3; ++i) {
        float total = 0.0f;
        for (int j = 0; j < 5; ++j) total += s.at(i, j);
        EXPECT_NEAR(total, 1.0f, 1e-5f);
    }
}

TEST(TensorTest, LogSoftmaxMatchesSoftmax)
{
    const Tensor x = randomTensor(2, 4, 2);
    const Tensor log_p = logSoftmaxRows(x);
    const Tensor p = softmaxRows(x);
    for (int i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(std::exp(log_p.data()[static_cast<std::size_t>(i)]),
                    p.data()[static_cast<std::size_t>(i)], 1e-5f);
    }
}

TEST(GradCheck, Matmul)
{
    checkGradients({randomTensor(2, 3, 10), randomTensor(3, 2, 11)},
                   [](const std::vector<Tensor>& in) {
                       return sumAll(matmul(in[0], in[1]));
                   });
}

TEST(GradCheck, AddAndScale)
{
    checkGradients({randomTensor(2, 2, 12), randomTensor(2, 2, 13)},
                   [](const std::vector<Tensor>& in) {
                       return sumAll(scale(add(in[0], in[1]), 1.5f));
                   });
}

TEST(GradCheck, MulElem)
{
    checkGradients({randomTensor(2, 3, 14), randomTensor(2, 3, 15)},
                   [](const std::vector<Tensor>& in) {
                       return meanAll(mulElem(in[0], in[1]));
                   });
}

TEST(GradCheck, RowBroadcast)
{
    checkGradients({randomTensor(3, 4, 16), randomTensor(1, 4, 17)},
                   [](const std::vector<Tensor>& in) {
                       return sumAll(addRowBroadcast(in[0], in[1]));
                   });
}

TEST(GradCheck, Activations)
{
    checkGradients({randomTensor(2, 4, 18)},
                   [](const std::vector<Tensor>& in) {
                       return sumAll(mulElem(tanhT(in[0]), sigmoid(in[0])));
                   });
}

TEST(GradCheck, ReluAwayFromKink)
{
    Tensor x = Tensor::fromData(1, 4, {0.5f, -0.7f, 1.2f, -0.3f}, true);
    checkGradients({x}, [](const std::vector<Tensor>& in) {
        return sumAll(relu(in[0]));
    });
}

TEST(GradCheck, SoftmaxWeightedSum)
{
    // Weighted sum makes the softmax Jacobian non-trivial.
    const Tensor weights = Tensor::fromData(1, 4, {0.3f, -1.0f, 2.0f, 0.1f});
    checkGradients({randomTensor(1, 4, 19)},
                   [weights](const std::vector<Tensor>& in) {
                       return sumAll(mulElem(softmaxRows(in[0]), weights));
                   });
}

TEST(GradCheck, LogSoftmaxPick)
{
    checkGradients({randomTensor(1, 5, 20)},
                   [](const std::vector<Tensor>& in) {
                       return pick(logSoftmaxRows(in[0]), 0, 2);
                   });
}

TEST(GradCheck, LayerNorm)
{
    checkGradients({randomTensor(2, 6, 21), randomTensor(1, 6, 22),
                    randomTensor(1, 6, 23)},
                   [](const std::vector<Tensor>& in) {
                       const Tensor target = Tensor::fromData(
                           2, 6, std::vector<float>(12, 0.3f));
                       const Tensor diff = sub(
                           layerNormRows(in[0], in[1], in[2]), target);
                       return meanAll(mulElem(diff, diff));
                   },
                   5e-2f);
}

TEST(GradCheck, TransposeAndSlice)
{
    checkGradients({randomTensor(3, 4, 24)},
                   [](const std::vector<Tensor>& in) {
                       const Tensor t = transpose(in[0]);
                       return sumAll(sliceCols(t, 1, 3));
                   });
}

TEST(GradCheck, ConcatAndSliceRow)
{
    checkGradients({randomTensor(2, 3, 25), randomTensor(2, 2, 26)},
                   [](const std::vector<Tensor>& in) {
                       const Tensor c = concatCols(in[0], in[1]);
                       return sumAll(sliceRow(c, 1));
                   });
}

TEST(GradCheck, ConcatRows)
{
    checkGradients({randomTensor(2, 3, 27), randomTensor(1, 3, 28)},
                   [](const std::vector<Tensor>& in) {
                       return meanAll(concatRows(in[0], in[1]));
                   });
}

TEST(GradCheck, EmbeddingLookup)
{
    checkGradients({randomTensor(5, 3, 29)},
                   [](const std::vector<Tensor>& in) {
                       return sumAll(embeddingLookup(in[0], {1, 3, 1}));
                   });
}

TEST(GradCheck, MaskedMeanRows)
{
    checkGradients({randomTensor(4, 3, 30)},
                   [](const std::vector<Tensor>& in) {
                       return sumAll(
                           maskedMeanRows(in[0], {1.0f, 0.0f, 1.0f, 1.0f}));
                   });
}

TEST(TensorTest, BackwardAccumulatesThroughSharedNodes)
{
    // y = x * x via shared handle: dy/dx = 2x.
    Tensor x = Tensor::fromData(1, 1, {3.0f}, true);
    Tensor y = sumAll(mulElem(x, x));
    x.zeroGrad();
    y = sumAll(mulElem(x, x));
    y.backward();
    EXPECT_NEAR(x.grad()[0], 6.0f, 1e-5f);
}

TEST(TensorTest, NoGradGuardRecordsNoGraphAndNests)
{
    const Tensor a = Tensor::fromData(1, 2, {1.0f, 2.0f}, true);
    const Tensor b = Tensor::fromData(1, 2, {3.0f, -4.0f}, true);
    const Tensor recorded = mulElem(a, b);
    EXPECT_TRUE(gradEnabled());
    {
        const NoGradGuard outer;
        EXPECT_FALSE(gradEnabled());
        {
            const NoGradGuard inner;
            EXPECT_FALSE(gradEnabled());
        }
        EXPECT_FALSE(gradEnabled());
        const Tensor bare = mulElem(a, b);
        // Same values, but no grad buffer, parents or backward closure.
        EXPECT_EQ(bare.data(), recorded.data());
        EXPECT_TRUE(bare.grad().empty());
        EXPECT_FALSE(bare.requiresGrad());
        EXPECT_TRUE(bare.node()->parents.empty());
        EXPECT_FALSE(bare.node()->backward_fn);
        // Leaves keep their gradient buffers.
        EXPECT_EQ(Tensor::zeros(2, 3, true).grad().size(), 6u);
    }
    EXPECT_TRUE(gradEnabled());
    EXPECT_EQ(recorded.grad().size(), 2u);
    EXPECT_EQ(recorded.node()->parents.size(), 2u);
}

TEST(TensorTest, NoGradGuardIsPerThread)
{
    const NoGradGuard no_grad;
    bool other_thread = false;
    std::thread([&other_thread] { other_thread = gradEnabled(); }).join();
    EXPECT_TRUE(other_thread);
    EXPECT_FALSE(gradEnabled());
}

TEST(TensorDeathTest, BackwardWithoutGraphFailsAssert)
{
    const Tensor x = Tensor::fromData(1, 2, {1.0f, 2.0f}, true);
    EXPECT_DEATH(
        {
            Tensor y;
            {
                const NoGradGuard no_grad;
                y = sumAll(mulElem(x, x));
            }
            y.backward();
        },
        "backward\\(\\) on a tensor built under NoGradGuard");
    // A recorded op over a result built under the guard fails too.
    EXPECT_DEATH(
        {
            Tensor y;
            {
                const NoGradGuard no_grad;
                y = mulElem(x, x);
            }
            sumAll(y).backward();
        },
        "through a tensor built under NoGradGuard");
}

TEST(TensorTest, MaskBlocksAttentionColumn)
{
    const Tensor scores = Tensor::fromData(1, 3, {1.0f, 1.0f, 1.0f});
    const Tensor masked =
        softmaxRows(addConstMask(scores, {0.0f, -1e9f, 0.0f}));
    EXPECT_NEAR(masked.at(0, 1), 0.0f, 1e-6f);
    EXPECT_NEAR(masked.at(0, 0), 0.5f, 1e-5f);
}

} // namespace
} // namespace chehab::nn
