/// \file
/// Neural network modules used by CHEHAB RL: Linear/MLP blocks, the
/// 4-layer 8-head Transformer encoder that produces the 256-d program
/// embedding (§5.1; dimensions are configurable and default smaller for
/// single-core training), and the GRU encoder used by the architecture
/// ablation (Appendix I.1).
#pragma once

#include <string>
#include <vector>

#include "nn/tensor.h"
#include "support/rng.h"

namespace chehab::nn {

/// Affine layer y = xW + b.
class Linear
{
  public:
    Linear() = default;
    Linear(int in_features, int out_features, Rng& rng);

    Tensor forward(const Tensor& x) const;
    void collectParams(std::vector<Tensor>& params) const;

    int inFeatures() const { return weight_.defined() ? weight_.rows() : 0; }
    int outFeatures() const { return weight_.defined() ? weight_.cols() : 0; }

  private:
    Tensor weight_;
    Tensor bias_;
};

/// Multi-layer perceptron with ReLU activations between layers (the rule
/// network 128-64, location network 64-64 and critic 256-128-64 of §5.4
/// are all instances).
class Mlp
{
  public:
    Mlp() = default;
    /// \p sizes is the full layer-width list, e.g. {256, 128, 64, 85}.
    Mlp(const std::vector<int>& sizes, Rng& rng);

    /// Forward pass; ReLU after every layer except the last.
    Tensor forward(const Tensor& x) const;
    void collectParams(std::vector<Tensor>& params) const;

  private:
    std::vector<Linear> layers_;
};

/// Configuration of the sequence encoders.
struct EncoderConfig
{
    int vocab_size = 0;
    int d_model = 64;    ///< Embedding width (paper: 256).
    int n_layers = 2;    ///< Transformer layers (paper: 4).
    int n_heads = 4;     ///< Attention heads (paper: 8).
    int d_ff = 128;      ///< Feed-forward width.
    int max_len = 96;    ///< Maximum token sequence length.
    int pad_id = 0;
};

/// Transformer encoder producing one fixed-length embedding per program
/// (the CLS row), with learned absolute positional embeddings. PAD
/// tokens never enter the encoder: they are dropped before the embedding
/// lookup and every kept token keeps its original position id. This is
/// bitwise the same as running PAD rows under an additive -1e9 key mask,
/// because a masked key's softmax weight underflows to exactly 0 and
/// every other operation is row-local.
class TransformerEncoder
{
  public:
    TransformerEncoder() = default;
    TransformerEncoder(const EncoderConfig& config, Rng& rng);

    /// Encode a padded id sequence whose first id is CLS; returns a
    /// 1 x d_model embedding (the CLS row after the final layer). Under
    /// a NoGradGuard the final layer computes only the CLS query row.
    Tensor encode(const std::vector<int>& ids) const;

    void collectParams(std::vector<Tensor>& params) const;
    const EncoderConfig& config() const { return config_; }

  private:
    struct Layer
    {
        Linear wq, wk, wv, wo;
        Tensor ln1_gain, ln1_bias;
        Linear ff1, ff2;
        Tensor ln2_gain, ln2_bias;
    };

    /// Contextual embeddings of the non-PAD tokens, one row each; with
    /// \p cls_only the final layer yields the CLS row alone.
    Tensor encodeSequence(const std::vector<int>& ids, bool cls_only) const;

    /// Multi-head self-attention over the rows of \p x; \p cls_only
    /// queries with row 0 alone (keys and values still cover every row).
    Tensor attention(const Layer& layer, const Tensor& x,
                     bool cls_only) const;

    EncoderConfig config_;
    Tensor token_embedding_;
    Tensor position_embedding_;
    std::vector<Layer> layers_;
};

/// Single-layer GRU encoder (final hidden state as the program
/// embedding); the recurrent baseline of the Transformer-vs-GRU ablation.
class GruEncoder
{
  public:
    GruEncoder() = default;
    GruEncoder(const EncoderConfig& config, Rng& rng);

    /// Encode a padded id sequence; returns the 1 x d_model final hidden
    /// state (PAD steps are skipped).
    Tensor encode(const std::vector<int>& ids) const;

    void collectParams(std::vector<Tensor>& params) const;
    const EncoderConfig& config() const { return config_; }

  private:
    EncoderConfig config_;
    Tensor token_embedding_;
    Linear wz_, uz_, wr_, ur_, wh_, uh_;
};

} // namespace chehab::nn
