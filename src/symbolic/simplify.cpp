#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>
#include <vector>

#include "dmv/symbolic/expr.hpp"
#include "intern.hpp"

namespace dmv::symbolic {

namespace {

// Splits a canonical term into (integer coefficient, residual term) so the
// Add simplifier can collect like terms: 3*N and N collect to 4*N. The
// residual for a pure constant is the unit term 1.
std::pair<std::int64_t, Expr> split_coefficient(const Expr& term) {
  if (term.is_constant()) return {term.constant_value(), Expr(1)};
  if (term.kind() == ExprKind::Mul && !term.operands().empty() &&
      term.operands()[0].is_constant()) {
    std::vector<Expr> rest(term.operands().begin() + 1, term.operands().end());
    if (rest.empty()) return {term.operands()[0].constant_value(), Expr(1)};
    if (rest.size() == 1)
      return {term.operands()[0].constant_value(), rest[0]};
    return {term.operands()[0].constant_value(),
            detail_make_raw(ExprKind::Mul, std::move(rest))};
  }
  return {1, term};
}

// Rebuilds coefficient * residual as a canonical term.
Expr rebuild_term(std::int64_t coefficient, const Expr& residual) {
  if (residual.is_constant(1)) return Expr(coefficient);
  if (coefficient == 1) return residual;
  std::vector<Expr> operands;
  operands.push_back(Expr(coefficient));
  if (residual.kind() == ExprKind::Mul) {
    operands.insert(operands.end(), residual.operands().begin(),
                    residual.operands().end());
  } else {
    operands.push_back(residual);
  }
  return detail_make_raw(ExprKind::Mul, std::move(operands));
}

bool expr_less(const Expr& a, const Expr& b) {
  return Expr::compare(a, b) < 0;
}

// Flattens one summand: nested Adds inline, constants fold, and the
// common `c * (a + b)` shape (negated sums, from operator-) distributes
// so that `x - (x + 1)` cancels to -1.
void flatten_summand(const Expr& op, std::vector<Expr>& flat,
                     std::int64_t& constant) {
  if (op.kind() == ExprKind::Add) {
    for (const Expr& inner : op.operands()) {
      flatten_summand(inner, flat, constant);
    }
    return;
  }
  if (op.is_constant()) {
    constant += op.constant_value();
    return;
  }
  if (op.kind() == ExprKind::Mul && op.operands().size() == 2 &&
      op.operands()[0].is_constant() &&
      op.operands()[1].kind() == ExprKind::Add) {
    const Expr& coefficient = op.operands()[0];
    for (const Expr& inner : op.operands()[1].operands()) {
      flatten_summand(Expr::make(ExprKind::Mul, {coefficient, inner}), flat,
                      constant);
    }
    return;
  }
  flat.push_back(op);
}

Expr simplify_add(const Expr& e) {
  std::vector<Expr> flat;
  std::int64_t constant = 0;
  for (const Expr& op : e.operands()) {
    flatten_summand(op, flat, constant);
  }
  // Collect like terms by residual. Quadratic in the number of distinct
  // terms, which stays tiny for the shape/stride polynomials the IR emits.
  std::vector<std::pair<Expr, std::int64_t>> collected;
  for (const Expr& term : flat) {
    auto [coefficient, residual] = split_coefficient(term);
    bool merged = false;
    for (auto& entry : collected) {
      if (Expr::compare(entry.first, residual) == 0) {
        entry.second += coefficient;
        merged = true;
        break;
      }
    }
    if (!merged) collected.emplace_back(residual, coefficient);
  }
  std::vector<Expr> result;
  if (constant != 0) result.push_back(Expr(constant));
  for (const auto& [residual, coefficient] : collected) {
    if (coefficient == 0) continue;
    result.push_back(rebuild_term(coefficient, residual));
  }
  if (result.empty()) return Expr(0);
  std::sort(result.begin(), result.end(), expr_less);
  if (result.size() == 1) return result[0];
  return detail_make_raw(ExprKind::Add, std::move(result));
}

Expr simplify_mul(const Expr& e) {
  std::vector<Expr> flat;
  std::int64_t constant = 1;
  for (const Expr& op : e.operands()) {
    if (op.kind() == ExprKind::Mul) {
      for (const Expr& inner : op.operands()) {
        if (inner.is_constant())
          constant *= inner.constant_value();
        else
          flat.push_back(inner);
      }
    } else if (op.is_constant()) {
      constant *= op.constant_value();
    } else {
      flat.push_back(op);
    }
  }
  if (constant == 0) return Expr(0);
  std::sort(flat.begin(), flat.end(), expr_less);
  std::vector<Expr> result;
  if (constant != 1 || flat.empty()) result.push_back(Expr(constant));
  result.insert(result.end(), flat.begin(), flat.end());
  if (result.size() == 1) return result[0];
  return detail_make_raw(ExprKind::Mul, std::move(result));
}

Expr expanded_opaque(const Expr& e);

// Cross product of two sums-of-terms: (a1+a2)*(b1+b2) -> a1b1+a1b2+...
std::vector<Expr> distribute(const std::vector<Expr>& lhs,
                             const std::vector<Expr>& rhs) {
  std::vector<Expr> out;
  out.reserve(lhs.size() * rhs.size());
  for (const Expr& a : lhs) {
    for (const Expr& b : rhs) out.push_back(a * b);
  }
  return out;
}

// Returns `e` as a flat list of additive terms, fully expanded.
std::vector<Expr> expand_terms(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::Add: {
      std::vector<Expr> out;
      for (const Expr& op : e.operands()) {
        std::vector<Expr> inner = expand_terms(op);
        out.insert(out.end(), inner.begin(), inner.end());
      }
      return out;
    }
    case ExprKind::Mul: {
      std::vector<Expr> acc{Expr(1)};
      for (const Expr& op : e.operands()) {
        acc = distribute(acc, expand_terms(op));
      }
      return acc;
    }
    case ExprKind::Pow: {
      const Expr& exponent = e.operands()[1];
      // Expand small constant powers; keep symbolic powers opaque.
      if (exponent.is_constant() && exponent.constant_value() >= 0 &&
          exponent.constant_value() <= 8) {
        std::vector<Expr> base = expand_terms(e.operands()[0]);
        std::vector<Expr> acc{Expr(1)};
        for (std::int64_t i = 0; i < exponent.constant_value(); ++i) {
          acc = distribute(acc, base);
        }
        return acc;
      }
      return {expanded_opaque(e)};
    }
    default:
      return {expanded_opaque(e)};
  }
}

// For non-polynomial nodes (div/mod/min/max/symbolic pow), expand the
// operands but keep the node itself opaque.
Expr expanded_opaque(const Expr& e) {
  if (e.is_constant() || e.is_symbol()) return e;
  std::vector<Expr> operands;
  operands.reserve(e.operands().size());
  for (const Expr& op : e.operands()) operands.push_back(expanded(op));
  return Expr::make(e.kind(), std::move(operands));
}

// If `product` is (or contains as a Mul operand) the factor, returns the
// cofactor; nullopt otherwise. Exact-division cancellation — sound for
// the positive extents/strides the IR works with.
std::optional<Expr> divide_out(const Expr& product, const Expr& factor) {
  if (Expr::compare(product, factor) == 0) return Expr(1);
  if (product.kind() != ExprKind::Mul) return std::nullopt;
  std::vector<Expr> rest;
  bool removed = false;
  for (const Expr& operand : product.operands()) {
    if (!removed && Expr::compare(operand, factor) == 0) {
      removed = true;
      continue;
    }
    rest.push_back(operand);
  }
  if (!removed) {
    // Constant factor dividing a constant leading coefficient.
    if (factor.is_constant() && !product.operands().empty() &&
        product.operands()[0].is_constant() &&
        quotient_fits_i64(product.operands()[0].constant_value(),
                          factor.constant_value()) &&
        product.operands()[0].constant_value() % factor.constant_value() ==
            0) {
      rest.assign(product.operands().begin() + 1, product.operands().end());
      const std::int64_t quotient =
          product.operands()[0].constant_value() / factor.constant_value();
      if (quotient != 1) rest.insert(rest.begin(), Expr(quotient));
      removed = true;
    }
  }
  if (!removed) return std::nullopt;
  if (rest.empty()) return Expr(1);
  if (rest.size() == 1) return rest[0];
  return detail_make_raw(ExprKind::Mul, std::move(rest));
}

}  // namespace

Expr expanded(const Expr& e) {
  std::vector<Expr> terms = expand_terms(e);
  Expr sum = 0;
  for (const Expr& term : terms) sum = sum + term;
  return sum;
}

namespace {

Expr simplified_impl(const Expr& e) {
  // Operands are canonical already (every construction path runs through
  // Expr::make, which simplifies), so a single local pass suffices.
  switch (e.kind()) {
    case ExprKind::Constant:
    case ExprKind::Symbol:
      return e;
    case ExprKind::Add:
      return simplify_add(e);
    case ExprKind::Mul:
      return simplify_mul(e);
    case ExprKind::FloorDiv:
    case ExprKind::CeilDiv: {
      const Expr& a = e.operands()[0];
      const Expr& b = e.operands()[1];
      if (a.is_constant(0)) return Expr(0);
      if (b.is_constant(1)) return a;
      // Folds only a quotient the helpers can compute; the rest stays
      // symbolic, and evaluating it raises their domain error.
      if (a.is_constant() && b.is_constant() &&
          quotient_fits_i64(a.constant_value(), b.constant_value())) {
        return Expr(e.kind() == ExprKind::FloorDiv
                        ? floor_div_i64(a.constant_value(), b.constant_value())
                        : ceil_div_i64(a.constant_value(),
                                       b.constant_value()));
      }
      if (Expr::compare(a, b) == 0) return Expr(1);
      // Exact cancellation: (x*b)/b -> x (positive-quantity assumption,
      // which the IR's extents and strides satisfy).
      if (std::optional<Expr> cofactor = divide_out(a, b)) {
        return *cofactor;
      }
      return e;
    }
    case ExprKind::Mod: {
      const Expr& a = e.operands()[0];
      const Expr& b = e.operands()[1];
      if (a.is_constant(0) || b.is_constant(1)) return Expr(0);
      if (a.is_constant() && b.is_constant() && b.constant_value() != 0) {
        return Expr(mod_i64(a.constant_value(), b.constant_value()));
      }
      if (Expr::compare(a, b) == 0) return Expr(0);
      // (x*b) mod b -> 0 under the same positivity assumption.
      if (divide_out(a, b).has_value()) return Expr(0);
      return e;
    }
    case ExprKind::Min:
    case ExprKind::Max: {
      const Expr& a = e.operands()[0];
      const Expr& b = e.operands()[1];
      if (a.is_constant() && b.is_constant()) {
        return Expr(e.kind() == ExprKind::Min
                        ? std::min(a.constant_value(), b.constant_value())
                        : std::max(a.constant_value(), b.constant_value()));
      }
      if (Expr::compare(a, b) == 0) return a;
      return e;
    }
    case ExprKind::Pow: {
      const Expr& base = e.operands()[0];
      const Expr& exponent = e.operands()[1];
      if (exponent.is_constant(0)) return Expr(1);
      if (exponent.is_constant(1)) return base;
      if (base.is_constant(0) || base.is_constant(1)) return base;
      if (base.is_constant() && exponent.is_constant()) {
        // Fold only when the result provably fits in int64_t; negative
        // exponents and overflowing powers stay symbolic (evaluation will
        // then surface the domain error / wrap exactly as the tree-walk
        // evaluator defines it).
        if (const std::optional<std::int64_t> folded = checked_pow_i64(
                base.constant_value(), exponent.constant_value())) {
          return Expr(*folded);
        }
      }
      return e;
    }
  }
  assert(false && "unreachable");
  return e;
}

}  // namespace

Expr simplified(const Expr& e) {
  if (e.is_constant() || e.is_symbol()) return e;
  // Memoized by interned node: identical (sub)expressions are one node,
  // so any expression the process has simplified before — from any layer,
  // on any thread — is a table hit. Raced recomputation is harmless: the
  // simplifier is deterministic and its result interns to the same node.
  const ExprNode* raw = detail::InternAccess::unwrap(e);
  if (const ExprNode* hit = detail_intern::lookup_simplify_memo(raw)) {
    return detail::InternAccess::wrap(hit);
  }
  const Expr result = simplified_impl(e);
  detail_intern::store_simplify_memo(raw, detail::InternAccess::unwrap(result));
  return result;
}

}  // namespace dmv::symbolic
