#pragma once

// Symbolic integer expression engine, hash-consed.
//
// Every quantity the analyses reason about (array extents, strides, memlet
// volumes, map bounds, FLOP counts) is an `Expr`: an immutable expression
// over 64-bit integer constants and named program symbols. Expressions are
// value types backed by *interned* immutable nodes: a global hash-consing
// interner canonicalizes every node by structural identity, so
//
//   * structurally identical subtrees are ONE node — an `Expr` is a single
//     pointer, copying is free, and structural equality is pointer
//     comparison;
//   * per-node analysis metadata (free-symbol set, structural hash) is
//     computed once at intern time, turning `depends_on` /
//     `collect_free_symbols` from tree walks into O(1)-to-O(set) lookups
//     even on heavily shared DAGs;
//   * memo tables keyed by node pointer let `simplified` and
//     `CompiledExpr::compile` reuse work across repeated analyses of the
//     same program.
//
// Symbol names are interned to dense `SymbolId` integers (side table for
// the names), so metadata queries compare integers, not strings.
// Bindings stay string-keyed `SymbolMap`s.
//
// Determinism contract: interned node addresses and SymbolId values depend
// on interning order and may differ between runs — they never leak into
// results, output text, or iteration order. Canonical operand ordering
// compares symbols by NAME, and all name-set outputs are sorted
// `std::set<std::string>`, so rendered expressions and analysis results
// are bit-identical at any thread count. See docs/symbolic.md.
//
// Expressions support partial substitution (bind some symbols, keep the
// rest symbolic) and full evaluation under a `SymbolMap`, which is what
// powers the paper's parametric scaling analysis (SC22 paper, section
// IV-D): the same symbolic volume is re-evaluated as the user moves an
// input-parameter slider.

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dmv::symbolic {

/// Binding of symbol names to concrete integer values.
using SymbolMap = std::map<std::string, std::int64_t>;

/// Dense interned symbol identifier. Assigned in first-intern order and
/// stable for the process lifetime; never serialized or ordered into
/// outputs (see the determinism contract above).
using SymbolId = std::uint32_t;

/// Interns `name`, returning its id (allocating one if new).
SymbolId intern_symbol(std::string_view name);
/// Id of `name` if it was ever interned; nullopt otherwise. A symbol that
/// was never interned cannot occur in any expression.
std::optional<SymbolId> find_symbol(std::string_view name);
/// Name of an interned id. The reference is stable for the process
/// lifetime. Precondition: `id` came from intern_symbol/find_symbol.
const std::string& symbol_name_of(SymbolId id);

/// Node discriminator. Add and Mul are n-ary (operands flattened and
/// canonically sorted by the simplifier); the rest are binary.
enum class ExprKind {
  Constant,
  Symbol,
  Add,
  Mul,
  FloorDiv,  ///< floor(a / b); matches integer index arithmetic
  CeilDiv,   ///< ceil(a / b); used for tile/cache-line counts
  Mod,
  Min,
  Max,
  Pow,
};

class Expr;
struct ExprNode;

namespace detail {
/// Interner backdoor: wraps/unwraps interned nodes for the engine's own
/// translation units. Not part of the public API.
struct InternAccess;
}  // namespace detail

/// Thrown when `Expr::evaluate` meets a symbol absent from the map.
class UnboundSymbolError : public std::runtime_error {
 public:
  explicit UnboundSymbolError(const std::string& symbol)
      : std::runtime_error("unbound symbol in evaluation: " + symbol),
        symbol_(symbol) {}
  const std::string& symbol() const { return symbol_; }

 private:
  std::string symbol_;
};

/// Immutable symbolic integer expression (value type; one interned
/// pointer, so copying is free and equality of canonical forms is pointer
/// identity).
class Expr {
 public:
  /// Default-constructs the constant 0.
  Expr();
  /// Implicit from integers so `shape = {Expr::symbol("N"), 4}` reads well.
  Expr(std::int64_t value);  // NOLINT(google-explicit-constructor)
  Expr(int value) : Expr(static_cast<std::int64_t>(value)) {}  // NOLINT

  static Expr symbol(std::string name);
  static Expr symbol(SymbolId id);
  /// Builds an n-ary/binary node of `kind` over `operands` and simplifies.
  static Expr make(ExprKind kind, std::vector<Expr> operands);

  ExprKind kind() const;
  bool is_constant() const { return kind() == ExprKind::Constant; }
  bool is_symbol() const { return kind() == ExprKind::Symbol; }
  /// True iff this is the literal constant `value`.
  bool is_constant(std::int64_t value) const;

  /// Precondition: is_constant().
  std::int64_t constant_value() const;
  /// Precondition: is_symbol().
  const std::string& symbol_name() const;
  /// Precondition: is_symbol().
  SymbolId symbol_id() const;
  /// Child expressions (empty for leaves).
  std::span<const Expr> operands() const;

  /// Fully evaluates; throws UnboundSymbolError on a missing symbol and
  /// std::domain_error where an integer helper below does.
  std::int64_t evaluate(const SymbolMap& symbols) const;
  /// Like evaluate but returns nullopt instead of throwing.
  std::optional<std::int64_t> try_evaluate(const SymbolMap& symbols) const;

  /// Replaces bound symbols with constants and re-simplifies. Symbols not
  /// present in the map stay symbolic (partial binding). Shared subtrees
  /// are rewritten once (DAG-memoized per call), and subtrees that reach
  /// none of the bound symbols are returned unchanged in O(1).
  Expr substitute(const SymbolMap& symbols) const;
  /// General substitution of symbols by arbitrary expressions.
  Expr substitute(const std::map<std::string, Expr>& replacements) const;

  void collect_free_symbols(std::set<std::string>& out) const;
  std::set<std::string> free_symbols() const;

  /// Reachability query: true iff `symbol` occurs anywhere in the
  /// expression. O(log |free set|) via intern-time metadata; allocates
  /// nothing — the session layer's per-artifact invalidation check.
  bool depends_on(std::string_view symbol) const;
  bool depends_on(SymbolId symbol) const;

  /// Structural equality after canonical simplification. Not a full
  /// symbolic equivalence decision procedure, but canonicalization makes
  /// it reliable for the polynomial expressions the IR produces.
  /// Canonical forms are interned, so this is pointer comparison plus (on
  /// mismatch) comparison of the expanded polynomial normal forms.
  bool equals(const Expr& other) const;

  /// True iff both wrap the same interned node — structural identity of
  /// canonical forms, O(1).
  bool same_node(const Expr& other) const { return node_ == other.node_; }

  /// Structural hash, computed once at intern time. Deterministic across
  /// runs (built from kinds, values, and symbol NAMES, not ids).
  std::uint64_t structural_hash() const;

  /// Number of distinct interned nodes reachable from this expression —
  /// the DAG footprint. Walks each unique node once.
  std::size_t dag_size() const;

  /// Human-readable form with minimal parenthesization.
  std::string to_string() const;

  /// Total order used for canonical operand sorting (constants first,
  /// then symbols by name, then composites by kind/operands). Structural
  /// and deterministic: never consults pointers or SymbolIds except for
  /// the equal-node fast path.
  static int compare(const Expr& a, const Expr& b);

  const ExprNode& node() const { return *node_; }

 private:
  explicit Expr(const ExprNode* node) : node_(node) {}
  const ExprNode* node_;  ///< Interned; owned by the process-lifetime arena.
  friend struct detail::InternAccess;
};

/// Builds a composite node WITHOUT simplification. Internal: used by the
/// simplifier to rebuild nodes whose operands are already canonical,
/// which is what guarantees the simplifier terminates.
Expr detail_make_raw(ExprKind kind, std::vector<Expr> operands);

/// Interned expression node. Immutable after interning; addresses are
/// stable for the process lifetime. The metadata fields are computed once
/// by the interner, never by consumers.
struct ExprNode {
  ExprKind kind = ExprKind::Constant;
  std::int64_t value = 0;      ///< Constant payload.
  SymbolId sym = 0;            ///< Symbol payload (see symbol_name_of).
  /// Symbol payload: the interned name (stable address, lock-free reads
  /// on the compare/print hot paths). Null for non-symbol nodes.
  const std::string* name = nullptr;
  std::vector<Expr> operands;  ///< Composite payload (interned children).

  // --- intern-time metadata -------------------------------------------
  std::uint64_t hash = 0;         ///< Structural hash (run-deterministic).
  std::uint64_t symbol_mask = 0;  ///< Bloom of free ids: bit (id % 64).
  /// Interned sorted free-symbol id set (never null; empty set for
  /// constant subtrees). Shared between nodes with equal sets.
  const std::vector<SymbolId>* free_syms = nullptr;
};

Expr operator+(const Expr& a, const Expr& b);
Expr operator-(const Expr& a, const Expr& b);
Expr operator-(const Expr& a);
Expr operator*(const Expr& a, const Expr& b);
/// Floor division, matching C++ `/` only for non-negative operands.
Expr operator/(const Expr& a, const Expr& b);
Expr operator%(const Expr& a, const Expr& b);

Expr min(const Expr& a, const Expr& b);
Expr max(const Expr& a, const Expr& b);
Expr ceil_div(const Expr& a, const Expr& b);
Expr pow(const Expr& base, const Expr& exponent);

/// True iff any symbol of `symbols` occurs in `e` — the multi-symbol
/// form of Expr::depends_on, same no-allocation contract.
bool depends_on_any(const Expr& e, const std::set<std::string>& symbols);

/// Binding delta: every symbol bound in only one of the two maps or
/// bound to different values — the invalidation query of the delta
/// recomputation engine. Sorted name set, ready for depends_on_any.
std::set<std::string> changed_symbols(const SymbolMap& before,
                                      const SymbolMap& after);

/// Canonical simplification: constant folding, identity elimination,
/// flattening of nested Add/Mul, like-term collection, operand sorting.
/// All operators already simplify locally; this is the deep pass.
/// Memoized by interned node, so re-simplifying a node the process has
/// seen before is a table lookup.
Expr simplified(const Expr& e);

/// Distributes products over sums and expands small constant powers,
/// yielding a canonical polynomial normal form. `Expr::equals` compares
/// expanded forms, so it decides equality for polynomial expressions;
/// display keeps the compact factored form.
Expr expanded(const Expr& e);

/// True iff `a / b` has an int64 quotient: `b` is not 0, and the pair is
/// not INT64_MIN / -1, whose quotient 2^63 does not fit.
constexpr bool quotient_fits_i64(std::int64_t a, std::int64_t b) {
  return b != 0 && !(b == -1 && a == std::numeric_limits<std::int64_t>::min());
}

/// Integer helpers shared by the simplifier and the evaluators so that
/// symbolic and concrete arithmetic can never disagree. The two
/// divisions throw std::domain_error unless quotient_fits_i64(a, b);
/// mod_i64 throws only on a zero divisor (any value mod -1 is 0);
/// pow_i64 throws on a negative exponent and otherwise wraps modulo
/// 2^64, in O(log exponent) multiplications.
std::int64_t floor_div_i64(std::int64_t a, std::int64_t b);
std::int64_t ceil_div_i64(std::int64_t a, std::int64_t b);
std::int64_t mod_i64(std::int64_t a, std::int64_t b);
std::int64_t pow_i64(std::int64_t base, std::int64_t exponent);
/// pow with overflow detection: nullopt if the exponent is negative or
/// the result does not fit in int64_t. The simplifier folds `Pow` only
/// through this, keeping overflowing powers symbolic.
std::optional<std::int64_t> checked_pow_i64(std::int64_t base,
                                            std::int64_t exponent);

}  // namespace dmv::symbolic
