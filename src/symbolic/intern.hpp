#pragma once

// Private interface between the symbolic engine's translation units and
// the global interner (intern.cpp). Not installed; nothing outside
// src/symbolic may include this.

#include <cstdint>
#include <vector>

#include "dmv/symbolic/expr.hpp"

namespace dmv::symbolic {

namespace detail {

struct InternAccess {
  static Expr wrap(const ExprNode* node) { return Expr(node); }
  static const ExprNode* unwrap(const Expr& e) { return &e.node(); }
};

}  // namespace detail

namespace detail_intern {

/// Cached hash of a symbol's NAME (run-deterministic, unlike its id).
std::uint64_t symbol_name_hash(SymbolId id);

/// Interns a node (computing its metadata); `operands` must already be
/// interned Exprs. Returns the canonical node for the structure.
const ExprNode* intern_node(ExprKind kind, std::int64_t value, SymbolId sym,
                            std::vector<Expr> operands);

/// Simplify memo: raw node -> canonical node. Lookup returns nullptr on
/// miss.
const ExprNode* lookup_simplify_memo(const ExprNode* raw);
void store_simplify_memo(const ExprNode* raw, const ExprNode* canonical);

}  // namespace detail_intern

}  // namespace dmv::symbolic
