/// \file
/// Module-level NN tests: Linear/MLP shapes, Transformer and GRU encoder
/// behaviour (masking, determinism, trainability) and Adam convergence on
/// small regression problems.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/adam.h"
#include "nn/layers.h"

namespace chehab::nn {
namespace {

EncoderConfig
smallConfig(int vocab = 24)
{
    EncoderConfig config;
    config.vocab_size = vocab;
    config.d_model = 16;
    config.n_layers = 2;
    config.n_heads = 2;
    config.d_ff = 32;
    config.max_len = 12;
    config.pad_id = 0;
    return config;
}

TEST(LinearTest, ForwardShape)
{
    Rng rng(1);
    const Linear lin(4, 3, rng);
    const Tensor y = lin.forward(Tensor::zeros(2, 4));
    EXPECT_EQ(y.rows(), 2);
    EXPECT_EQ(y.cols(), 3);
}

TEST(MlpTest, ParamCount)
{
    Rng rng(2);
    const Mlp mlp({8, 16, 4}, rng);
    std::vector<Tensor> params;
    mlp.collectParams(params);
    // Two Linear layers, each weight + bias.
    EXPECT_EQ(params.size(), 4u);
}

TEST(MlpTest, LearnsXor)
{
    Rng rng(3);
    Mlp mlp({2, 16, 1}, rng);
    std::vector<Tensor> params;
    mlp.collectParams(params);
    AdamConfig adam_config;
    adam_config.learning_rate = 5e-2f;
    adam_config.max_grad_norm = 0.0f;
    Adam adam(params, adam_config);

    const float xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    const float ys[4] = {0, 1, 1, 0};
    float loss_value = 0.0f;
    for (int epoch = 0; epoch < 400; ++epoch) {
        loss_value = 0.0f;
        for (int s = 0; s < 4; ++s) {
            const Tensor x = Tensor::fromData(1, 2, {xs[s][0], xs[s][1]});
            const Tensor target = Tensor::fromData(1, 1, {ys[s]});
            const Tensor diff = sub(mlp.forward(x), target);
            const Tensor loss = meanAll(mulElem(diff, diff));
            loss.backward();
            loss_value += loss.item();
        }
        adam.step();
    }
    EXPECT_LT(loss_value / 4.0f, 0.05f);
}

TEST(TransformerTest, EncodeShapeAndDeterminism)
{
    Rng rng(4);
    const TransformerEncoder enc(smallConfig(), rng);
    const std::vector<int> ids = {1, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0};
    const Tensor a = enc.encode(ids);
    const Tensor b = enc.encode(ids);
    EXPECT_EQ(a.rows(), 1);
    EXPECT_EQ(a.cols(), 16);
    for (int i = 0; i < a.size(); ++i) {
        EXPECT_FLOAT_EQ(a.data()[static_cast<std::size_t>(i)],
                        b.data()[static_cast<std::size_t>(i)]);
    }
}

/// encode() with a graph recorded and under a NoGradGuard (where the
/// final layer computes only the CLS row); both must agree bitwise.
Tensor
encodeBothWays(const TransformerEncoder& enc, const std::vector<int>& ids)
{
    const Tensor recorded = enc.encode(ids);
    const NoGradGuard no_grad;
    const Tensor bare = enc.encode(ids);
    EXPECT_EQ(bare.data(), recorded.data());
    return recorded;
}

TEST(TransformerTest, PaddingInvariance)
{
    // The same tokens unpadded, padded to 7 and padded to max_len give
    // bitwise the same embedding, and so does a sequence of max_len
    // real tokens with or without PAD past the cut.
    Rng rng(5);
    const TransformerEncoder enc(smallConfig(), rng);
    const std::vector<int> tokens = {1, 5, 6};
    const Tensor unpadded = encodeBothWays(enc, tokens);
    std::vector<int> padded = tokens;
    padded.resize(7, 0);
    EXPECT_EQ(encodeBothWays(enc, padded).data(), unpadded.data());
    padded.resize(12, 0);
    EXPECT_EQ(encodeBothWays(enc, padded).data(), unpadded.data());

    std::vector<int> full = {1, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
    const Tensor at_max_len = encodeBothWays(enc, full);
    full.resize(15, 0);
    EXPECT_EQ(encodeBothWays(enc, full).data(), at_max_len.data());
    EXPECT_NE(at_max_len.data(), unpadded.data());
}

/// The encoder as it ran before PAD rows were dropped: every row, PAD
/// included, through both layers, with an additive -1e9 mask on PAD
/// keys. Built from the encoder's own parameters (collectParams order).
Tensor
maskedReferenceEncode(const std::vector<Tensor>& p, const EncoderConfig& cfg,
                      const std::vector<int>& ids)
{
    const int len = static_cast<int>(ids.size());
    std::vector<int> positions(ids.size());
    std::vector<float> mask(static_cast<std::size_t>(len) * len, 0.0f);
    for (int i = 0; i < len; ++i) {
        positions[static_cast<std::size_t>(i)] = i;
        for (int j = 0; j < len; ++j) {
            if (ids[static_cast<std::size_t>(j)] == cfg.pad_id) {
                mask[static_cast<std::size_t>(i) * len + j] = -1e9f;
            }
        }
    }
    const auto linear = [](const Tensor& x, const Tensor& w,
                           const Tensor& b) {
        return addRowBroadcast(matmul(x, w), b);
    };
    const int d_head = cfg.d_model / cfg.n_heads;
    Tensor x = add(embeddingLookup(p[0], ids),
                   embeddingLookup(p[1], positions));
    for (int l = 0; l < cfg.n_layers; ++l) {
        const Tensor* w = &p[2 + static_cast<std::size_t>(l) * 16];
        const Tensor q = linear(x, w[0], w[1]);
        const Tensor k = linear(x, w[2], w[3]);
        const Tensor v = linear(x, w[4], w[5]);
        Tensor heads;
        for (int h = 0; h < cfg.n_heads; ++h) {
            const Tensor qh = sliceCols(q, h * d_head, (h + 1) * d_head);
            const Tensor kh = sliceCols(k, h * d_head, (h + 1) * d_head);
            const Tensor vh = sliceCols(v, h * d_head, (h + 1) * d_head);
            const Tensor scores = addConstMask(
                scale(matmul(qh, transpose(kh)),
                      1.0f / std::sqrt(static_cast<float>(d_head))),
                mask);
            const Tensor out_h = matmul(softmaxRows(scores), vh);
            heads = h == 0 ? out_h : concatCols(heads, out_h);
        }
        x = layerNormRows(add(x, linear(heads, w[6], w[7])), w[8], w[9]);
        const Tensor ff =
            linear(relu(linear(x, w[10], w[11])), w[12], w[13]);
        x = layerNormRows(add(x, ff), w[14], w[15]);
    }
    return sliceRow(x, 0);
}

TEST(TransformerTest, MatchesMaskedReferenceBitwise)
{
    // Dropping PAD rows (and, without a graph, every non-CLS row of the
    // final layer) is exact: embeddings and every parameter gradient
    // equal the masked all-rows reference bit for bit.
    Rng rng(11);
    const TransformerEncoder enc(smallConfig(), rng);
    std::vector<Tensor> params;
    enc.collectParams(params);
    ASSERT_EQ(params.size(), 2u + 16u * 2u);
    const auto grads = [&params] {
        std::vector<std::vector<float>> out;
        for (const Tensor& t : params) out.push_back(t.grad());
        return out;
    };
    for (const std::vector<int>& ids :
         {std::vector<int>{1, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
          std::vector<int>{1, 5, 6, 7, 3, 0, 0, 0, 0, 0, 0, 0},
          std::vector<int>{1, 5, 0, 7, 0, 0, 9, 0, 0, 0, 0, 0},
          std::vector<int>{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}) {
        for (Tensor& t : params) t.zeroGrad();
        const Tensor reference =
            maskedReferenceEncode(params, enc.config(), ids);
        sumAll(reference).backward();
        const std::vector<std::vector<float>> reference_grads = grads();

        for (Tensor& t : params) t.zeroGrad();
        const Tensor embedding = encodeBothWays(enc, ids);
        EXPECT_EQ(embedding.data(), reference.data());
        sumAll(embedding).backward();
        EXPECT_EQ(grads(), reference_grads);
    }
}

TEST(TransformerTest, DistinguishesPrograms)
{
    Rng rng(6);
    const TransformerEncoder enc(smallConfig(), rng);
    const Tensor a = enc.encode({1, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0});
    const Tensor b = enc.encode({1, 7, 6, 5, 0, 0, 0, 0, 0, 0, 0, 0});
    float diff = 0.0f;
    for (int i = 0; i < a.size(); ++i) {
        diff += std::fabs(a.data()[static_cast<std::size_t>(i)] -
                          b.data()[static_cast<std::size_t>(i)]);
    }
    EXPECT_GT(diff, 1e-3f);
}

TEST(TransformerTest, GradientsReachAllParams)
{
    Rng rng(7);
    const TransformerEncoder enc(smallConfig(), rng);
    std::vector<Tensor> params;
    enc.collectParams(params);
    for (Tensor& p : params) p.zeroGrad();

    const Tensor emb = enc.encode({1, 5, 6, 7, 3, 0, 0, 0, 0, 0, 0, 0});
    sumAll(emb).backward();

    int with_grad = 0;
    for (const Tensor& p : params) {
        float norm = 0.0f;
        for (float g : p.grad()) norm += std::fabs(g);
        if (norm > 0.0f) ++with_grad;
    }
    // All parameters participate (embedding rows for absent tokens aside).
    EXPECT_EQ(with_grad, static_cast<int>(params.size()));
}

TEST(TransformerTest, TrainableOnToyObjective)
{
    // Push the CLS embedding's first coordinate to +1 for one program and
    // -1 for another; verify the loss drops (end-to-end differentiability
    // through attention).
    Rng rng(8);
    TransformerEncoder enc(smallConfig(), rng);
    std::vector<Tensor> params;
    enc.collectParams(params);
    AdamConfig config;
    config.learning_rate = 1e-2f;
    Adam adam(params, config);

    const std::vector<int> p1 = {1, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0};
    const std::vector<int> p2 = {1, 7, 9, 4, 0, 0, 0, 0, 0, 0, 0, 0};
    auto loss_fn = [&]() {
        const Tensor e1 = pick(enc.encode(p1), 0, 0);
        const Tensor e2 = pick(enc.encode(p2), 0, 0);
        const Tensor t1 = sub(e1, Tensor::fromData(1, 1, {1.0f}));
        const Tensor t2 = sub(e2, Tensor::fromData(1, 1, {-1.0f}));
        return add(mulElem(t1, t1), mulElem(t2, t2));
    };
    const float before = meanAll(loss_fn()).item();
    for (int i = 0; i < 30; ++i) {
        meanAll(loss_fn()).backward();
        adam.step();
    }
    const float after = meanAll(loss_fn()).item();
    EXPECT_LT(after, before * 0.5f);
}

TEST(GruTest, EncodeShapeAndOrderSensitivity)
{
    Rng rng(9);
    const GruEncoder enc(smallConfig(), rng);
    const Tensor a = enc.encode({1, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0});
    EXPECT_EQ(a.rows(), 1);
    EXPECT_EQ(a.cols(), 16);
    const Tensor b = enc.encode({1, 7, 6, 5, 0, 0, 0, 0, 0, 0, 0, 0});
    float diff = 0.0f;
    for (int i = 0; i < a.size(); ++i) {
        diff += std::fabs(a.data()[static_cast<std::size_t>(i)] -
                          b.data()[static_cast<std::size_t>(i)]);
    }
    EXPECT_GT(diff, 1e-4f);
}

TEST(GruTest, SkipsPadSteps)
{
    Rng rng(10);
    const GruEncoder enc(smallConfig(), rng);
    // Extra trailing PADs must not change the state.
    const Tensor a = enc.encode({1, 5, 6, 0, 0, 0});
    const Tensor b = enc.encode({1, 5, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0});
    for (int i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a.data()[static_cast<std::size_t>(i)],
                    b.data()[static_cast<std::size_t>(i)], 1e-6f);
    }
}

TEST(AdamTest, ConvergesOnQuadratic)
{
    Rng rng(11);
    Tensor x = Tensor::randn(1, 4, rng, 1.0f, true);
    AdamConfig config;
    config.learning_rate = 5e-2f;
    config.max_grad_norm = 0.0f;
    Adam adam({x}, config);
    for (int i = 0; i < 300; ++i) {
        const Tensor loss = meanAll(mulElem(x, x));
        loss.backward();
        adam.step();
    }
    for (float v : x.data()) EXPECT_NEAR(v, 0.0f, 1e-2f);
}

TEST(AdamTest, GradClippingBoundsNorm)
{
    Tensor x = Tensor::fromData(1, 2, {100.0f, -100.0f}, true);
    AdamConfig config;
    config.max_grad_norm = 0.5f;
    Adam adam({x}, config);
    const Tensor loss = sumAll(mulElem(x, x));
    loss.backward();
    adam.step();
    EXPECT_GT(adam.lastGradNorm(), 0.5f); // Raw norm is large...
    // ...but the applied update magnitude is bounded by lr regardless.
    EXPECT_NEAR(x.data()[0], 100.0f - config.learning_rate, 1e-3f);
}

} // namespace
} // namespace chehab::nn
