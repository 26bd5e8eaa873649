#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace chehab::nn {

// ---------------------------------------------------------------------
// Linear.
// ---------------------------------------------------------------------

Linear::Linear(int in_features, int out_features, Rng& rng)
{
    const float limit = 1.0f / std::sqrt(static_cast<float>(in_features));
    weight_ = Tensor::randn(in_features, out_features, rng, limit, true);
    bias_ = Tensor::zeros(1, out_features, true);
}

Tensor
Linear::forward(const Tensor& x) const
{
    return addRowBroadcast(matmul(x, weight_), bias_);
}

void
Linear::collectParams(std::vector<Tensor>& params) const
{
    params.push_back(weight_);
    params.push_back(bias_);
}

// ---------------------------------------------------------------------
// MLP.
// ---------------------------------------------------------------------

Mlp::Mlp(const std::vector<int>& sizes, Rng& rng)
{
    CHEHAB_ASSERT(sizes.size() >= 2, "Mlp needs at least two sizes");
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
        layers_.emplace_back(sizes[i], sizes[i + 1], rng);
    }
}

Tensor
Mlp::forward(const Tensor& x) const
{
    Tensor h = x;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        h = layers_[i].forward(h);
        if (i + 1 < layers_.size()) h = relu(h);
    }
    return h;
}

void
Mlp::collectParams(std::vector<Tensor>& params) const
{
    for (const auto& layer : layers_) layer.collectParams(params);
}

// ---------------------------------------------------------------------
// Transformer encoder.
// ---------------------------------------------------------------------

TransformerEncoder::TransformerEncoder(const EncoderConfig& config, Rng& rng)
    : config_(config)
{
    CHEHAB_ASSERT(config.d_model % config.n_heads == 0,
                  "d_model must be divisible by n_heads");
    const float emb_scale =
        1.0f / std::sqrt(static_cast<float>(config.d_model));
    token_embedding_ =
        Tensor::randn(config.vocab_size, config.d_model, rng, emb_scale,
                      true);
    position_embedding_ =
        Tensor::randn(config.max_len, config.d_model, rng, emb_scale, true);
    for (int l = 0; l < config.n_layers; ++l) {
        Layer layer;
        layer.wq = Linear(config.d_model, config.d_model, rng);
        layer.wk = Linear(config.d_model, config.d_model, rng);
        layer.wv = Linear(config.d_model, config.d_model, rng);
        layer.wo = Linear(config.d_model, config.d_model, rng);
        layer.ln1_gain = Tensor::fromData(
            1, config.d_model,
            std::vector<float>(static_cast<std::size_t>(config.d_model),
                               1.0f),
            true);
        layer.ln1_bias = Tensor::zeros(1, config.d_model, true);
        layer.ff1 = Linear(config.d_model, config.d_ff, rng);
        layer.ff2 = Linear(config.d_ff, config.d_model, rng);
        layer.ln2_gain = Tensor::fromData(
            1, config.d_model,
            std::vector<float>(static_cast<std::size_t>(config.d_model),
                               1.0f),
            true);
        layer.ln2_bias = Tensor::zeros(1, config.d_model, true);
        layers_.push_back(std::move(layer));
    }
}

Tensor
TransformerEncoder::attention(const Layer& layer, const Tensor& x,
                              bool cls_only) const
{
    const int d_model = config_.d_model;
    const int n_heads = config_.n_heads;
    const int d_head = d_model / n_heads;
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(d_head));

    const Tensor q = layer.wq.forward(cls_only ? sliceRow(x, 0) : x);
    const Tensor k = layer.wk.forward(x);
    const Tensor v = layer.wv.forward(x);

    Tensor heads;
    for (int h = 0; h < n_heads; ++h) {
        const Tensor qh = sliceCols(q, h * d_head, (h + 1) * d_head);
        const Tensor kh = sliceCols(k, h * d_head, (h + 1) * d_head);
        const Tensor vh = sliceCols(v, h * d_head, (h + 1) * d_head);
        const Tensor scores = scale(matmul(qh, transpose(kh)), inv_sqrt);
        const Tensor attn = softmaxRows(scores);
        const Tensor out_h = matmul(attn, vh);
        heads = h == 0 ? out_h : concatCols(heads, out_h);
    }
    return layer.wo.forward(heads);
}

Tensor
TransformerEncoder::encodeSequence(const std::vector<int>& ids,
                                   bool cls_only) const
{
    const int len = std::min(static_cast<int>(ids.size()), config_.max_len);
    std::vector<int> tokens;
    std::vector<int> positions;
    for (int i = 0; i < len; ++i) {
        const int id = ids[static_cast<std::size_t>(i)];
        if (id == config_.pad_id) continue;
        tokens.push_back(id);
        positions.push_back(i);
    }

    Tensor x = add(embeddingLookup(token_embedding_, tokens),
                   embeddingLookup(position_embedding_, positions));
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const Layer& layer = layers_[l];
        const bool cls_row = cls_only && l + 1 == layers_.size();
        const Tensor attn = attention(layer, x, cls_row);
        x = layerNormRows(add(cls_row ? sliceRow(x, 0) : x, attn),
                          layer.ln1_gain, layer.ln1_bias);
        const Tensor ff = layer.ff2.forward(relu(layer.ff1.forward(x)));
        x = layerNormRows(add(x, ff), layer.ln2_gain, layer.ln2_bias);
    }
    return x;
}

Tensor
TransformerEncoder::encode(const std::vector<int>& ids) const
{
    // Row 0 is the CLS token (the tokenizers prepend it). Only that row
    // leaves the encoder, so inference skips the other query rows of the
    // final layer. With a graph recorded every row stays: cutting them
    // would reorder gradient accumulation and move trained parameters.
    CHEHAB_ASSERT(!ids.empty() && ids[0] != config_.pad_id,
                  "encode() needs a CLS token first");
    return sliceRow(encodeSequence(ids, !gradEnabled()), 0);
}

void
TransformerEncoder::collectParams(std::vector<Tensor>& params) const
{
    params.push_back(token_embedding_);
    params.push_back(position_embedding_);
    for (const Layer& layer : layers_) {
        layer.wq.collectParams(params);
        layer.wk.collectParams(params);
        layer.wv.collectParams(params);
        layer.wo.collectParams(params);
        params.push_back(layer.ln1_gain);
        params.push_back(layer.ln1_bias);
        layer.ff1.collectParams(params);
        layer.ff2.collectParams(params);
        params.push_back(layer.ln2_gain);
        params.push_back(layer.ln2_bias);
    }
}

// ---------------------------------------------------------------------
// GRU encoder.
// ---------------------------------------------------------------------

GruEncoder::GruEncoder(const EncoderConfig& config, Rng& rng)
    : config_(config)
{
    const float emb_scale =
        1.0f / std::sqrt(static_cast<float>(config.d_model));
    token_embedding_ =
        Tensor::randn(config.vocab_size, config.d_model, rng, emb_scale,
                      true);
    wz_ = Linear(config.d_model, config.d_model, rng);
    uz_ = Linear(config.d_model, config.d_model, rng);
    wr_ = Linear(config.d_model, config.d_model, rng);
    ur_ = Linear(config.d_model, config.d_model, rng);
    wh_ = Linear(config.d_model, config.d_model, rng);
    uh_ = Linear(config.d_model, config.d_model, rng);
}

Tensor
GruEncoder::encode(const std::vector<int>& ids) const
{
    const int len = std::min(static_cast<int>(ids.size()), config_.max_len);
    std::vector<int> clipped(ids.begin(), ids.begin() + len);
    const Tensor embedded = embeddingLookup(token_embedding_, clipped);

    Tensor h = Tensor::zeros(1, config_.d_model);
    for (int t = 0; t < len; ++t) {
        if (clipped[static_cast<std::size_t>(t)] == config_.pad_id) continue;
        const Tensor x_t = sliceRow(embedded, t);
        const Tensor z = sigmoid(add(wz_.forward(x_t), uz_.forward(h)));
        const Tensor r = sigmoid(add(wr_.forward(x_t), ur_.forward(h)));
        const Tensor h_tilde =
            tanhT(add(wh_.forward(x_t), uh_.forward(mulElem(r, h))));
        // h = (1 - z) * h + z * h_tilde.
        const Tensor one_minus_z = scale(sub(z, Tensor::fromData(
            1, config_.d_model,
            std::vector<float>(static_cast<std::size_t>(config_.d_model),
                               1.0f))), -1.0f);
        h = add(mulElem(one_minus_z, h), mulElem(z, h_tilde));
    }
    return h;
}

void
GruEncoder::collectParams(std::vector<Tensor>& params) const
{
    params.push_back(token_embedding_);
    wz_.collectParams(params);
    uz_.collectParams(params);
    wr_.collectParams(params);
    ur_.collectParams(params);
    wh_.collectParams(params);
    uh_.collectParams(params);
}

} // namespace chehab::nn
