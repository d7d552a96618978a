#pragma once

// Compiled expression evaluation.
//
// `Expr::evaluate` walks a shared-pointer tree and resolves every symbol
// through a `std::map<std::string, int64_t>` — fine for one-off queries,
// ruinous inside the simulator's innermost loops, where the same handful
// of bound expressions is re-evaluated millions of times as parameters
// advance. `CompiledExpr` flattens an `Expr` once into a postfix opcode
// array with symbols resolved to integer SLOTS against a `SymbolTable`;
// evaluation is then a single pass over a contiguous array with an
// array-indexed environment — no hashing, no string compares, no
// allocation.
//
// Semantics are bit-identical to `Expr::evaluate`: the same
// floor/ceil/mod/pow helpers, the same std::domain_error conditions, and
// `UnboundSymbolError` for symbols whose slot the caller never bound
// (checked per evaluation via a per-slot bound mask the caller owns).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dmv/symbolic/expr.hpp"

namespace dmv::symbolic {

class BatchedCompiledExpr;
class CompiledExpr;

/// Interns symbol names to dense slots. One table is shared by every
/// expression compiled for the same evaluation context, so a single
/// `slots`-sized array serves as the environment for all of them.
///
/// Slot lookup is keyed by global SymbolId (flat map, no string
/// hashing); slot assignment stays append-only in first-intern order, so
/// a table's slot numbering — unlike SymbolId values — is fully
/// determined by the compile call sequence. The table also memoizes
/// compilation per interned expression node: re-compiling an expression
/// this table has seen (slot assignment is append-only, so the earlier
/// result is still valid) is a pointer-keyed lookup. Not thread-safe —
/// one table per evaluation context, as before.
class SymbolTable {
 public:
  /// Compile-memo capacity. When an insert would exceed it the memo is
  /// cleared wholesale: recompiling is cheap, an unbounded map on a
  /// long-lived table is not.
  static constexpr std::size_t kCompileMemoCap = std::size_t{1} << 14;

  /// Slot of `name`, interning it if new.
  int intern(const std::string& name);
  int intern(SymbolId id);
  /// Slot of `name`, or -1 if never interned.
  int lookup(const std::string& name) const;
  int lookup(SymbolId id) const;

  std::size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }
  /// Current compile-memo population (bounded by kCompileMemoCap).
  std::size_t memo_size() const { return memo_.size(); }

  /// Builds a slot-indexed environment from a SymbolMap: values for
  /// bound slots, and a parallel mask of which slots are bound. Symbols
  /// in `symbols` without a slot are ignored (they were never needed).
  void bind(const SymbolMap& symbols, std::vector<std::int64_t>& values,
            std::vector<char>& bound) const;

 private:
  friend class CompiledExpr;
  std::vector<std::string> names_;
  std::unordered_map<SymbolId, int> slots_;
  /// Compile memo: interned node -> compiled form (shared, immutable).
  std::unordered_map<const ExprNode*, std::shared_ptr<const CompiledExpr>>
      memo_;
};

/// An `Expr` flattened to postfix form over a `SymbolTable`.
class CompiledExpr {
 public:
  /// Default: the constant 0.
  CompiledExpr();

  /// Flattens `expr`, interning its symbols into `table`.
  static CompiledExpr compile(const Expr& expr, SymbolTable& table);

  /// Evaluates against a slot-indexed environment (values for at least
  /// `table.size()` slots at compile time). With a `bound` mask, throws
  /// UnboundSymbolError (matching Expr::evaluate) if a referenced slot is
  /// not marked bound; pass the table's names() to report the symbol by
  /// name. Without one, the caller guarantees every referenced slot is
  /// bound.
  std::int64_t evaluate(const std::int64_t* values,
                        const char* bound = nullptr,
                        const std::vector<std::string>* names = nullptr) const;

  /// Slots this expression reads (deduplicated, ascending). The basis of
  /// loop-invariant hoisting: an expression is invariant w.r.t. a set of
  /// slots if the intersection is empty.
  const std::vector<int>& slots() const { return slots_; }
  /// True if the expression reads any of the given slots.
  bool reads_any(const std::vector<int>& query) const;

 private:
  /// The lane-batched evaluator runs the same instruction stream over W
  /// environments at once (see batched.hpp).
  friend class BatchedCompiledExpr;

  enum class Op : std::uint8_t {
    PushConst,
    PushSlot,
    Add,       ///< n-ary: pops `arg`, pushes sum.
    Mul,       ///< n-ary: pops `arg`, pushes product.
    FloorDiv,
    CeilDiv,
    Mod,
    Min,
    Max,
    Pow,
  };
  struct Inst {
    Op op;
    std::int64_t arg = 0;  ///< Constant, slot, or n-ary operand count.
  };

  std::vector<Inst> code_;
  std::vector<int> slots_;
  int max_stack_ = 1;
};

}  // namespace dmv::symbolic
