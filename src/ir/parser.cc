#include "ir/parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "support/error.h"
#include "support/parse_int.h"

namespace chehab::ir {

namespace {

/// Hand-rolled recursive-descent reader over the raw character buffer.
/// The IR vocabulary is tiny, so this is faster and simpler than a
/// generic tokenizer.
class Reader
{
  public:
    /// Deepest list nesting, and tallest built tree, accepted.
    /// Recursion depth — here and in every recursive pass downstream —
    /// follows the nesting, so a hostile input must be refused before
    /// it overflows the stack. An n-ary `(+ ...)` or `(* ...)` folds
    /// into a chain one level per extra operand, so the bound applies
    /// to the height of the tree the reader builds, not only to the
    /// text's nesting. Real kernels stay far below it (the deepest
    /// benchsuite kernel nests 34).
    static constexpr int kMaxNesting = 1024;

    /// Most nodes the reader builds for one expression (every leaf, list
    /// and fold node counts). The largest program any test, bench or
    /// suite parses has ~2,050 nodes; the bound refuses a hostile
    /// `(Vec ...)` of a million operands while it is being read, before
    /// the compiler's passes see it.
    static constexpr int kMaxNodes = 1 << 16;

    explicit Reader(const std::string& text) : text_(text) {}

    ExprPtr
    parseAll()
    {
        int height = 0;
        ExprPtr e = parseExpr(height);
        skipSpace();
        if (pos_ != text_.size()) {
            throw CompileError("trailing characters after expression at " +
                               std::to_string(pos_));
        }
        return e;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size()) throw CompileError("unexpected end of input");
        return text_[pos_];
    }

    bool
    atEnd()
    {
        skipSpace();
        return pos_ >= text_.size();
    }

    std::string
    readToken()
    {
        skipSpace();
        const std::size_t start = pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
                c == ')') {
                break;
            }
            ++pos_;
        }
        if (pos_ == start) throw CompileError("expected token");
        return text_.substr(start, pos_ - start);
    }

    static bool
    isInteger(const std::string& tok)
    {
        std::size_t i = (tok[0] == '-' && tok.size() > 1) ? 1 : 0;
        if (i == tok.size()) return false;
        for (; i < tok.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(tok[i]))) {
                return false;
            }
        }
        return true;
    }

    /// Checked literal conversion: isInteger() already rejected
    /// garbage, so the only way parseInt64 fails is ERANGE — a literal
    /// strtoll would silently saturate to INT64_MIN/MAX.
    static std::int64_t
    toInt64(const std::string& tok)
    {
        std::int64_t value = 0;
        if (!parseInt64(tok.c_str(), value)) {
            throw CompileError("integer literal out of range: '" + tok + "'");
        }
        return value;
    }

    std::int64_t
    parseIntToken()
    {
        const std::string tok = readToken();
        if (!isInteger(tok)) {
            throw CompileError("expected integer, got '" + tok + "'");
        }
        return toInt64(tok);
    }

    [[noreturn]] void
    tooDeep() const
    {
        throw CompileError("expression nests deeper than " +
                           std::to_string(kMaxNesting) + " at " +
                           std::to_string(pos_));
    }

    /// Count one more built node; refused above kMaxNodes.
    void
    countNode()
    {
        if (++nodes_ > kMaxNodes) {
            throw CompileError("expression has more than " +
                               std::to_string(kMaxNodes) + " nodes at " +
                               std::to_string(pos_));
        }
    }

    /// The height of a node whose tallest child is \p child_height
    /// tall; refused above kMaxNesting. Heights count operator nodes on
    /// the longest root-to-leaf path (0 for a leaf).
    int
    levelAbove(int child_height) const
    {
        if (child_height >= kMaxNesting) tooDeep();
        return child_height + 1;
    }

    /// Parse one expression and set \p height to its tree height.
    ExprPtr
    parseExpr(int& height)
    {
        const char c = peek();
        if (c == '(') return parseList(height);
        if (c == ')') throw CompileError("unexpected ')'");
        countNode();
        height = 0;
        const std::string tok = readToken();
        if (isInteger(tok)) return constant(toInt64(tok));
        return var(tok);
    }

    /// Operands up to the closing ')', with each one's tree height.
    std::vector<ExprPtr>
    parseOperands(std::vector<int>& heights)
    {
        std::vector<ExprPtr> operands;
        while (peek() != ')') {
            heights.push_back(0);
            operands.push_back(parseExpr(heights.back()));
        }
        return operands;
    }

    void
    expectClose()
    {
        if (peek() != ')') throw CompileError("expected ')'");
        ++pos_;
    }

    ExprPtr
    parseList(int& height)
    {
        // Checked on the way down as well, so the reader's own
        // recursion is bounded before any height is known.
        if (++depth_ > kMaxNesting) tooDeep();
        ++pos_; // consume '('
        ExprPtr e = parseListBody(height);
        --depth_;
        return e;
    }

    ExprPtr
    parseListBody(int& height)
    {
        const std::string head = readToken();

        if (head == "pt") {
            const std::string name = readToken();
            expectClose();
            countNode();
            height = 0;
            return plainVar(name);
        }
        if (head == "<<" || head == ">>") {
            int operand_height = 0;
            ExprPtr operand = parseExpr(operand_height);
            const std::int64_t step = parseIntToken();
            expectClose();
            countNode();
            height = levelAbove(operand_height);
            const int signed_step =
                head == "<<" ? static_cast<int>(step) : -static_cast<int>(step);
            return rotate(std::move(operand), signed_step);
        }

        std::vector<int> heights;
        std::vector<ExprPtr> operands = parseOperands(heights);
        expectClose();

        if (head == "+" || head == "*") {
            return foldLeft(head == "+" ? Op::Add : Op::Mul,
                            std::move(operands), heights, height);
        }
        countNode();
        int tallest = 0;
        for (const int h : heights) tallest = std::max(tallest, h);
        height = levelAbove(tallest);

        auto require_arity = [&](std::size_t n) {
            if (operands.size() != n) {
                throw CompileError("operator '" + head + "' expects " +
                                   std::to_string(n) + " operands, got " +
                                   std::to_string(operands.size()));
            }
        };

        if (head == "-") {
            if (operands.size() == 1) return neg(std::move(operands[0]));
            require_arity(2);
            return sub(std::move(operands[0]), std::move(operands[1]));
        }
        if (head == "Vec") {
            if (operands.empty()) throw CompileError("empty (Vec)");
            return vec(std::move(operands));
        }
        if (head == "VecAdd") {
            require_arity(2);
            return vecAdd(std::move(operands[0]), std::move(operands[1]));
        }
        if (head == "VecSub") {
            require_arity(2);
            return vecSub(std::move(operands[0]), std::move(operands[1]));
        }
        if (head == "VecMul") {
            require_arity(2);
            return vecMul(std::move(operands[0]), std::move(operands[1]));
        }
        if (head == "VecNeg") {
            require_arity(1);
            return vecNeg(std::move(operands[0]));
        }
        throw CompileError("unknown operator '" + head + "'");
    }

    /// n-ary + / * in the input text folds into left-leaning binary nodes
    /// (the TRS balancing rules may later reshape them). Each node of
    /// the chain is one level, so \p height counts the whole chain.
    ExprPtr
    foldLeft(Op op, std::vector<ExprPtr> operands,
             const std::vector<int>& heights, int& height)
    {
        if (operands.size() < 2) {
            throw CompileError("operator needs at least 2 operands");
        }
        ExprPtr acc = operands[0];
        height = heights[0];
        for (std::size_t i = 1; i < operands.size(); ++i) {
            height = levelAbove(std::max(height, heights[i]));
            countNode();
            acc = makeNode(op, {acc, operands[i]}, {}, 0, 0);
        }
        return acc;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    int depth_ = 0; ///< Lists currently open.
    int nodes_ = 0;  ///< Nodes built so far.
};

} // namespace

ExprPtr
parse(const std::string& text)
{
    return Reader(text).parseAll();
}

bool
isValid(const std::string& text)
{
    try {
        parse(text);
        return true;
    } catch (const CompileError&) {
        return false;
    }
}

} // namespace chehab::ir
