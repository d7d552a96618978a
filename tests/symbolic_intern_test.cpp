// Hash-consing engine tests: intern identity, memoized DAG analyses on
// heavily shared subtrees, Pow folding overflow guards, and property /
// fuzz coverage that the interned engine is observationally identical to
// plain recursive tree walks (test-local oracles below).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <set>
#include <vector>

#include "dmv/symbolic/compiled.hpp"
#include "dmv/symbolic/expr.hpp"

namespace dmv::symbolic {
namespace {

TEST(SymbolicIntern, StructurallyEqualExpressionsShareOneNode) {
  const Expr a = Expr::symbol("N") * 4 + Expr::symbol("M");
  const Expr b = Expr::symbol("N") * 4 + Expr::symbol("M");
  EXPECT_TRUE(a.same_node(b));
  EXPECT_EQ(&a.node(), &b.node());
  // compare()==0 iff same interned node: canonical forms are unique.
  EXPECT_EQ(Expr::compare(a, b), 0);
  const Expr c = Expr::symbol("N") * 4 + Expr::symbol("K");
  EXPECT_FALSE(a.same_node(c));
  EXPECT_NE(Expr::compare(a, c), 0);
}

TEST(SymbolicIntern, EqualsMatchesExpandedPointerIdentity) {
  // (N+1)*(N+1) and N*N + 2*N + 1: structurally different, polynomially
  // equal — equals() must hold, and their expanded forms must intern to
  // the same node.
  const Expr n = Expr::symbol("N");
  const Expr factored = (n + 1) * (n + 1);
  const Expr expanded_form = n * n + 2 * n + 1;
  EXPECT_TRUE(factored.equals(expanded_form));
  EXPECT_TRUE(expanded(factored).same_node(expanded(expanded_form)));
  EXPECT_FALSE(factored.same_node(expanded_form));
}

TEST(SymbolicIntern, ConstantsAndSymbolsIntern) {
  EXPECT_TRUE(Expr(0).same_node(Expr()));
  EXPECT_TRUE(Expr(12345).same_node(Expr(12340) + 5));
  EXPECT_TRUE(Expr::symbol("ZZZ_intern").same_node(Expr::symbol("ZZZ_intern")));
  const SymbolId id = intern_symbol("ZZZ_intern");
  EXPECT_EQ(Expr::symbol("ZZZ_intern").symbol_id(), id);
  EXPECT_EQ(symbol_name_of(id), "ZZZ_intern");
  EXPECT_EQ(find_symbol("ZZZ_intern"), id);
  EXPECT_EQ(find_symbol("ZZZ_never_interned_anywhere"), std::nullopt);
}

TEST(SymbolicIntern, StructuralHashIsStructural) {
  const Expr a = (Expr::symbol("I") + 1) * Expr::symbol("J");
  const Expr b = (Expr::symbol("I") + 1) * Expr::symbol("J");
  EXPECT_EQ(a.structural_hash(), b.structural_hash());
  EXPECT_NE(a.structural_hash(),
            ((Expr::symbol("I") + 2) * Expr::symbol("J")).structural_hash());
}

// The satellite regression: a 40-level expression whose TREE is ~2^40
// nodes but whose DAG is tiny. Every analysis below must run off the
// intern-time metadata in (well under) milliseconds; the legacy
// per-reference walk would never terminate.
TEST(SymbolicIntern, SharedDagAnalysesAreMetadataLookups) {
  Expr e = Expr::symbol("x") + Expr::symbol("y");
  for (int level = 0; level < 40; ++level) {
    e = e * e + e;  // doubles the tree at every level, shares the DAG
  }
  ASSERT_LE(e.dag_size(), 200u);  // DAG stays tiny

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(e.depends_on("x"));
  EXPECT_TRUE(e.depends_on("y"));
  EXPECT_FALSE(e.depends_on("z"));
  EXPECT_EQ(e.free_symbols(), (std::set<std::string>{"x", "y"}));
  EXPECT_TRUE(depends_on_any(e, std::set<std::string>{"q", "x"}));
  EXPECT_FALSE(depends_on_any(e, std::set<std::string>{"q", "r"}));
  // Substitution rewrites each distinct node once (DAG memo), folding
  // the whole thing to a constant without touching 2^40 tree nodes.
  // x = y = 0 keeps every folded level at 0, so constant folding never
  // overflows int64 arithmetic on the way down.
  const Expr folded = e.substitute(SymbolMap{{"x", 0}, {"y", 0}});
  ASSERT_TRUE(folded.is_constant());
  EXPECT_EQ(folded.constant_value(), 0);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  EXPECT_LT(elapsed_ms, 250.0)
      << "shared-DAG analyses must be metadata lookups, not tree walks";
}

// --- Pow constant-folding guards --------------------------------------

TEST(SymbolicIntern, CheckedPowBoundaries) {
  EXPECT_EQ(checked_pow_i64(2, 62), std::int64_t{1} << 62);
  EXPECT_EQ(checked_pow_i64(2, 63), std::nullopt);  // overflows int64
  EXPECT_EQ(checked_pow_i64(-2, 63), std::nullopt);
  EXPECT_EQ(checked_pow_i64(3, 39), 4052555153018976267);  // max 3^k in i64
  EXPECT_EQ(checked_pow_i64(3, 40), std::nullopt);
  EXPECT_EQ(checked_pow_i64(10, 18), 1000000000000000000);
  EXPECT_EQ(checked_pow_i64(10, 19), std::nullopt);
  EXPECT_EQ(checked_pow_i64(2, -1), std::nullopt);  // negative exponent
  // Trivial bases terminate for any exponent.
  EXPECT_EQ(checked_pow_i64(0, 0), 1);
  EXPECT_EQ(checked_pow_i64(0, 1'000'000'000'000), 0);
  EXPECT_EQ(checked_pow_i64(1, 1'000'000'000'000), 1);
  EXPECT_EQ(checked_pow_i64(-1, 1'000'000'000'001), -1);
  EXPECT_EQ(checked_pow_i64(-1, 1'000'000'000'000), 1);
}

TEST(SymbolicIntern, PowFoldGuardedAgainstOverflow) {
  // In-range powers still fold.
  const Expr folds = pow(Expr(2), Expr(10));
  ASSERT_TRUE(folds.is_constant());
  EXPECT_EQ(folds.constant_value(), 1024);
  // Overflowing powers stay symbolic instead of folding to garbage.
  const Expr overflow = pow(Expr(2), Expr(64));
  EXPECT_FALSE(overflow.is_constant());
  EXPECT_EQ(overflow.kind(), ExprKind::Pow);
  EXPECT_EQ(overflow.to_string(), "2**64");
  // Negative constant exponents stay symbolic (evaluation then raises
  // the documented domain error).
  const Expr negative = pow(Expr(2), Expr(-3));
  EXPECT_FALSE(negative.is_constant());
  EXPECT_THROW(negative.evaluate(SymbolMap{}), std::domain_error);
  // Largest folding power-of-two still folds exactly.
  const Expr max_fold = pow(Expr(2), Expr(62));
  ASSERT_TRUE(max_fold.is_constant());
  EXPECT_EQ(max_fold.constant_value(), std::int64_t{1} << 62);
}

// --- property / fuzz: interned engine == legacy walks ------------------

// Random expression trees over a small symbol pool. Depth-bounded and
// magnitude-bounded; exercises every ExprKind. With |leaf| <= 3, depth 4,
// and pow exponents <= 2, the worst-case magnitude (all multiplications
// of subtracted subtrees) stays below 2^63, so no intermediate — in the
// evaluators or in constant folding — overflows int64.
Expr random_expr(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> leaf(0, 3);
  std::uniform_int_distribution<int> kind(0, 7);
  std::uniform_int_distribution<std::int64_t> constant(-3, 3);
  std::uniform_int_distribution<int> symbol(0, 2);
  static const char* kSymbols[] = {"pfA", "pfB", "pfC"};
  if (depth <= 0 || leaf(rng) == 0) {
    if (leaf(rng) < 2) return Expr(constant(rng));
    return Expr::symbol(kSymbols[symbol(rng)]);
  }
  const Expr a = random_expr(rng, depth - 1);
  const Expr b = random_expr(rng, depth - 1);
  switch (kind(rng)) {
    case 0:
      return a + b;
    case 1:
      return a - b;
    case 2:
      return a * b;
    case 3:
      return a / b;
    case 4:
      return a % b;
    case 5:
      return min(a, b);
    case 6:
      return max(a, b);
    default:
      return pow(a, Expr(std::uniform_int_distribution<std::int64_t>(
                       0, 2)(rng)));
  }
}

// Reference evaluator: a plain recursive tree walk over the public node
// structure, sharing only the integer helpers — independent of the
// evaluator under test.
std::int64_t reference_eval(const Expr& e, const SymbolMap& env) {
  switch (e.kind()) {
    case ExprKind::Constant:
      return e.constant_value();
    case ExprKind::Symbol:
      return env.at(e.symbol_name());
    case ExprKind::Add: {
      std::int64_t acc = 0;
      for (const Expr& op : e.operands()) acc += reference_eval(op, env);
      return acc;
    }
    case ExprKind::Mul: {
      std::int64_t acc = 1;
      for (const Expr& op : e.operands()) acc *= reference_eval(op, env);
      return acc;
    }
    case ExprKind::FloorDiv:
      return floor_div_i64(reference_eval(e.operands()[0], env),
                           reference_eval(e.operands()[1], env));
    case ExprKind::CeilDiv:
      return ceil_div_i64(reference_eval(e.operands()[0], env),
                          reference_eval(e.operands()[1], env));
    case ExprKind::Mod:
      return mod_i64(reference_eval(e.operands()[0], env),
                     reference_eval(e.operands()[1], env));
    case ExprKind::Min:
      return std::min(reference_eval(e.operands()[0], env),
                      reference_eval(e.operands()[1], env));
    case ExprKind::Max:
      return std::max(reference_eval(e.operands()[0], env),
                      reference_eval(e.operands()[1], env));
    case ExprKind::Pow:
      return pow_i64(reference_eval(e.operands()[0], env),
                     reference_eval(e.operands()[1], env));
  }
  return 0;
}

std::optional<std::int64_t> reference_try_eval(const Expr& e,
                                               const SymbolMap& env) {
  try {
    return reference_eval(e, env);
  } catch (const std::domain_error&) {
    return std::nullopt;
  }
}

TEST(SymbolicIntern, FuzzEvaluationMatchesReferenceAndBinding) {
  std::mt19937 rng(20260806);
  const SymbolMap env{{"pfA", 3}, {"pfB", -2}, {"pfC", 2}};
  SymbolTable table;
  for (int round = 0; round < 300; ++round) {
    const Expr e = random_expr(rng, 4);
    const std::optional<std::int64_t> expected = reference_try_eval(e, env);
    // Simplification at construction already ran; evaluating the
    // canonical form must agree with the reference walk of that SAME
    // canonical form, across every evaluation engine.
    EXPECT_EQ(e.try_evaluate(env), expected) << e.to_string();
    if (expected.has_value()) {
      const CompiledExpr compiled = CompiledExpr::compile(e, table);
      std::vector<std::int64_t> values;
      std::vector<char> bound;
      table.bind(env, values, bound);
      EXPECT_EQ(compiled.evaluate(values.data(), bound.data(),
                                  &table.names()),
                *expected)
          << e.to_string();
      // Full substitution folds to the same constant.
      const Expr substituted = e.substitute(env);
      ASSERT_TRUE(substituted.is_constant()) << e.to_string();
      EXPECT_EQ(substituted.constant_value(), *expected) << e.to_string();
    }
  }
}

// Tree-walk oracles for the interned engine's metadata and memo paths:
// plain recursion over the public node structure, no memo, no pruning.
void walk_free_symbols(const Expr& e, std::set<std::string>& out) {
  if (e.is_symbol()) out.insert(e.symbol_name());
  for (const Expr& op : e.operands()) walk_free_symbols(op, out);
}

bool walk_depends_on_any(const Expr& e, const std::set<std::string>& names) {
  if (e.is_symbol()) return names.contains(e.symbol_name());
  for (const Expr& op : e.operands()) {
    if (walk_depends_on_any(op, names)) return true;
  }
  return false;
}

// Rebuilds every changed node through Expr::make, bottom up.
Expr walk_substitute(const Expr& e, const SymbolMap& symbols) {
  if (e.is_symbol()) {
    const auto it = symbols.find(e.symbol_name());
    return it == symbols.end() ? e : Expr(it->second);
  }
  std::vector<Expr> operands;
  bool changed = false;
  for (const Expr& op : e.operands()) {
    operands.push_back(walk_substitute(op, symbols));
    changed = changed || !operands.back().same_node(op);
  }
  return changed ? Expr::make(e.kind(), std::move(operands)) : e;
}

TEST(SymbolicIntern, FuzzMemoizedAndLegacyPathsAgree) {
  std::mt19937 rng(4242);
  const SymbolMap partial{{"pfA", 3}};
  const std::set<std::string> probe{"pfB", "pfQ"};
  for (int round = 0; round < 150; ++round) {
    const Expr e = random_expr(rng, 4);
    // Memoized / metadata answers must equal the tree walks bit for bit.
    std::set<std::string> walked;
    walk_free_symbols(e, walked);
    EXPECT_EQ(e.free_symbols(), walked) << e.to_string();
    for (const char* name : {"pfA", "pfB", "pfC", "pfQ"}) {
      EXPECT_EQ(e.depends_on(name), walk_depends_on_any(e, {name}))
          << name << " in " << e.to_string();
    }
    EXPECT_EQ(depends_on_any(e, probe), walk_depends_on_any(e, probe))
        << e.to_string();
    EXPECT_TRUE(e.substitute(partial).same_node(walk_substitute(e, partial)))
        << e.to_string();
    // Simplification is idempotent and stable under interning.
    const Expr s = simplified(e);
    EXPECT_TRUE(simplified(s).same_node(s)) << e.to_string();
    // a.equals(b) for canonically equal forms means same interned node.
    EXPECT_TRUE(s.same_node(simplified(e))) << e.to_string();
  }
}

TEST(SymbolicIntern, RepeatedSubstitutionsShareOneNode) {
  const Expr volume =
      (Expr::symbol("I") + 2) * (Expr::symbol("J") + 2) * Expr::symbol("K") * 8;
  const SymbolMap binding{{"I", 16}, {"J", 16}, {"K", 4}};
  const Expr first = volume.substitute(binding);
  // A second call rewrites again, and its result interns to the same node.
  const Expr second = volume.substitute(binding);
  EXPECT_TRUE(first.same_node(second));
  ASSERT_TRUE(first.is_constant());
  EXPECT_EQ(first.constant_value(), 18 * 18 * 4 * 8);
  // Unreached substitutions return the expression unchanged in O(1).
  EXPECT_TRUE(volume.substitute(SymbolMap{{"ZQ", 1}}).same_node(volume));
}

TEST(SymbolicIntern, CompileMemoReturnsIdenticalCode) {
  const Expr e = Expr::symbol("I") * Expr::symbol("J") + 3;
  SymbolTable table;
  const CompiledExpr first = CompiledExpr::compile(e, table);
  const CompiledExpr second = CompiledExpr::compile(e, table);
  EXPECT_EQ(first.slots(), second.slots());
  std::vector<std::int64_t> values;
  std::vector<char> bound;
  table.bind(SymbolMap{{"I", 6}, {"J", 7}}, values, bound);
  EXPECT_EQ(first.evaluate(values.data(), bound.data()), 45);
  EXPECT_EQ(second.evaluate(values.data(), bound.data()), 45);
}

}  // namespace
}  // namespace dmv::symbolic
