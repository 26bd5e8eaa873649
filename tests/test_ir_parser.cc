/// \file
/// Parser unit tests: grammar coverage, round-tripping through the
/// printer, and error handling for malformed input (the dataset
/// validation path of §6).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "benchsuite/kernels.h"
#include "ir/parser.h"
#include "support/error.h"

namespace chehab::ir {
namespace {

TEST(ParserTest, Leaves)
{
    EXPECT_EQ(parse("x")->op(), Op::Var);
    EXPECT_EQ(parse("x")->name(), "x");
    EXPECT_EQ(parse("42")->value(), 42);
    EXPECT_EQ(parse("-7")->value(), -7);
    EXPECT_EQ(parse("(pt w)")->op(), Op::PlainVar);
}

TEST(ParserTest, ScalarOps)
{
    EXPECT_EQ(parse("(+ a b)")->op(), Op::Add);
    EXPECT_EQ(parse("(- a b)")->op(), Op::Sub);
    EXPECT_EQ(parse("(- a)")->op(), Op::Neg);
    EXPECT_EQ(parse("(* a b)")->op(), Op::Mul);
}

TEST(ParserTest, NaryFoldsLeft)
{
    const ExprPtr e = parse("(+ a b c d)");
    EXPECT_EQ(e->toString(), "(+ (+ (+ a b) c) d)");
}

TEST(ParserTest, VectorOps)
{
    EXPECT_EQ(parse("(Vec a b c)")->arity(), 3u);
    EXPECT_EQ(parse("(VecAdd (Vec a b) (Vec c d))")->op(), Op::VecAdd);
    EXPECT_EQ(parse("(VecNeg (Vec a b))")->op(), Op::VecNeg);
}

TEST(ParserTest, Rotations)
{
    const ExprPtr left = parse("(<< (Vec a b c) 2)");
    EXPECT_EQ(left->op(), Op::Rotate);
    EXPECT_EQ(left->step(), 2);
    const ExprPtr right = parse("(>> (Vec a b c) 2)");
    EXPECT_EQ(right->step(), -2);
}

TEST(ParserTest, RoundTripThroughPrinter)
{
    const char* samples[] = {
        "(+ a (* b c))",
        "(VecMul (Vec a c e g) (Vec b d f h))",
        "(<< (VecAdd (Vec a b) (Vec c d)) 1)",
        "(- (- a))",
        "(* (pt w) x)",
        "(VecAdd (Vec (+ a b) (* c d)) (Vec 0 1))",
    };
    for (const char* text : samples) {
        const ExprPtr once = parse(text);
        const ExprPtr twice = parse(once->toString());
        EXPECT_TRUE(equal(once, twice)) << text;
    }
}

TEST(ParserTest, MotivatingExampleParses)
{
    // Eq. 1 of the paper.
    const ExprPtr e = parse(
        "(* (+ (* (* v1 v2) (* v3 v4)) (* (* v3 v4) (* v5 v6)))"
        "   (* (* v7 v8) (* v9 v10)))");
    EXPECT_EQ(e->op(), Op::Mul);
    EXPECT_EQ(e->numNodes(), 23);
}

TEST(ParserTest, WhitespaceInsensitive)
{
    EXPECT_TRUE(equal(parse("(+ a b)"), parse("  (  +   a\n\tb ) ")));
}

TEST(ParserTest, Errors)
{
    EXPECT_THROW(parse(""), CompileError);
    EXPECT_THROW(parse("(+ a"), CompileError);
    EXPECT_THROW(parse("(+ a b))"), CompileError);
    EXPECT_THROW(parse("(/ a b)"), CompileError);
    EXPECT_THROW(parse("(VecAdd a)"), CompileError);
    EXPECT_THROW(parse("(Vec)"), CompileError);
    EXPECT_THROW(parse("(<< v x)"), CompileError);
    EXPECT_THROW(parse(")"), CompileError);
}

TEST(ParserTest, IsValidMirrorsParse)
{
    EXPECT_TRUE(isValid("(+ a b)"));
    EXPECT_FALSE(isValid("(+ a"));
    EXPECT_FALSE(isValid("(% a b)"));
}

TEST(ParserTest, Int64BoundaryLiteralsParse)
{
    EXPECT_EQ(parse("9223372036854775807")->value(), INT64_MAX);
    EXPECT_EQ(parse("-9223372036854775808")->value(), INT64_MIN);
    // Inside larger expressions and rotation steps too.
    EXPECT_EQ(parse("(+ a 9223372036854775807)")->child(1)->value(),
              INT64_MAX);
}

TEST(ParserTest, OutOfRangeLiteralsThrowInsteadOfSaturating)
{
    // strtoll would silently clamp these to INT64_MAX/MIN; the parser
    // must reject them so a dataset literal never changes value.
    EXPECT_THROW(parse("9223372036854775808"), CompileError);
    EXPECT_THROW(parse("-9223372036854775809"), CompileError);
    EXPECT_THROW(parse("99999999999999999999"), CompileError);
    EXPECT_THROW(parse("(+ a 99999999999999999999)"), CompileError);
    EXPECT_THROW(parse("(Vec 1 99999999999999999999)"), CompileError);
    EXPECT_FALSE(isValid("99999999999999999999"));
}

/// `(+ (+ ... (+ a b) ... b) b)` with \p depth nested lists.
std::string
deepChain(int depth)
{
    std::string text;
    for (int i = 0; i < depth; ++i) text += "(+ ";
    text += 'a';
    for (int i = 0; i < depth; ++i) text += " b)";
    return text;
}

/// Deepest list nesting in \p text.
int
nesting(const std::string& text)
{
    int depth = 0;
    int deepest = 0;
    for (const char c : text) {
        if (c == '(') deepest = std::max(deepest, ++depth);
        if (c == ')') --depth;
    }
    return deepest;
}

TEST(ParserTest, NestingIsBoundedBeforeTheStackIs)
{
    EXPECT_TRUE(isValid(deepChain(1024)));
    EXPECT_THROW(parse(deepChain(1025)), CompileError);
    // Deep enough to overflow an unbounded recursive descent.
    EXPECT_THROW(parse(deepChain(20000)), CompileError);
    EXPECT_THROW(parse("(<< " + deepChain(1024) + " 1)"), CompileError);
    // Every benchmark kernel fits with room to spare, and prints and
    // parses back to the same tree.
    int deepest = 0;
    for (const benchsuite::Kernel& kernel : benchsuite::fullSuite(32, 10)) {
        const std::string text = kernel.program->toString();
        ASSERT_TRUE(isValid(text)) << kernel.name;
        EXPECT_EQ(parse(text)->toString(), text) << kernel.name;
        deepest = std::max(deepest, nesting(text));
    }
    EXPECT_LE(deepest, 64);
}

/// `(op a0 a1 ... a<operands-1>)` on one level.
std::string
wideList(const std::string& op, int operands)
{
    std::string text = "(" + op;
    for (int i = 0; i < operands; ++i) text += " a" + std::to_string(i);
    return text + ")";
}

TEST(ParserTest, WideSumsAreBoundedByTheTreeTheyFoldInto)
{
    // One list level, but the fold builds a chain one node per extra
    // operand: the bound applies to that chain's height.
    EXPECT_TRUE(isValid(wideList("+", 1025)));
    EXPECT_THROW(parse(wideList("+", 1026)), CompileError);
    EXPECT_THROW(parse(wideList("+", 20000)), CompileError);
    EXPECT_THROW(parse(wideList("*", 20000)), CompileError);
    // Fold levels and list levels add up.
    EXPECT_THROW(parse("(- " + wideList("+", 1025) + ")"), CompileError);
    std::string operands;
    for (int i = 0; i < 24; ++i) operands += " b";
    EXPECT_TRUE(isValid("(* " + deepChain(1000) + operands + ")"));
    EXPECT_THROW(parse("(* " + deepChain(1000) + operands + " b)"),
                 CompileError);
}

TEST(ParserTest, NodeCountIsBounded)
{
    // 65,536 nodes is the limit: a Vec node plus 65,535 leaves parses,
    // one more leaf does not, and a million-operand Vec is refused
    // while it is read.
    constexpr int kLimit = 1 << 16;
    const ExprPtr at_limit = parse(wideList("Vec", kLimit - 1));
    EXPECT_EQ(at_limit->numNodes(), kLimit);
    EXPECT_THROW(parse(wideList("Vec", kLimit)), CompileError);
    EXPECT_THROW(parse(wideList("Vec", 1000000)), CompileError);
    try {
        parse(wideList("Vec", 1000000));
    } catch (const CompileError& e) {
        EXPECT_NE(std::string(e.what()).find("more than 65536 nodes"),
                  std::string::npos)
            << e.what();
    }
    // Every node kind counts: a (pt x) leaf, a rotation and a fold node
    // each take one from the budget.
    const std::string tail = " (pt p) (<< v 1) (+ x y))";
    std::string text = wideList("Vec", kLimit - 7);
    text.pop_back();
    EXPECT_TRUE(isValid(text + tail));
    EXPECT_EQ(parse(text + tail)->numNodes(), kLimit);
    EXPECT_THROW(parse(text + " extra" + tail), CompileError);
}

} // namespace
} // namespace chehab::ir
