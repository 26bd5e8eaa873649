/// \file
/// S-expression parser for the CHEHAB IR text format.
///
/// Grammar (matching the printer and the LLM synthesis protocol, App. F):
///
///     expr   := ident | integer
///             | '(' 'pt' ident ')'
///             | '(' op expr+ ')'
///             | '(' '<<' expr integer ')'
///             | '(' '>>' expr integer ')'
///     op     := '+' | '-' | '*' | 'Vec' | 'VecAdd' | 'VecSub'
///             | 'VecMul' | 'VecNeg'
///
/// '-' is unary negation with one operand and subtraction with two.
/// '>>' parses as a left rotation with a negated step.
#pragma once

#include <string>

#include "ir/expr.h"

namespace chehab::ir {

/// Parse one expression from \p text. Throws CompileError on malformed
/// input (unbalanced parens, unknown operators, bad arity), on trees
/// taller than 1,024 and on more than 65,536 nodes.
ExprPtr parse(const std::string& text);

/// Returns true if \p text parses cleanly (used by the dataset
/// post-processing validation step, §6).
bool isValid(const std::string& text);

} // namespace chehab::ir
