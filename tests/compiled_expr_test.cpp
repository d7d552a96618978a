#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "dmv/symbolic/compiled.hpp"
#include "dmv/symbolic/expr.hpp"
#include "dmv/symbolic/parser.hpp"

namespace dmv::symbolic {
namespace {

const std::vector<std::string> kSymbols{"N", "M", "K", "i", "j"};

// Random expression tree over the shared symbol pool. Pow exponents are
// small non-negative constants so values stay in int64 range; everything
// else is unconstrained — division by zero is part of the contract being
// tested (both engines must throw std::domain_error on the same inputs).
Expr random_expr(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> leaf_pick(0, 1);
  std::uniform_int_distribution<std::int64_t> constant(-5, 5);
  std::uniform_int_distribution<std::size_t> symbol(0, kSymbols.size() - 1);
  if (depth <= 0 || std::uniform_int_distribution<int>(0, 3)(rng) == 0) {
    return leaf_pick(rng) == 0 ? Expr(constant(rng))
                               : Expr::symbol(kSymbols[symbol(rng)]);
  }
  std::uniform_int_distribution<int> kind_pick(0, 7);
  const ExprKind kinds[] = {ExprKind::Add,     ExprKind::Mul,
                            ExprKind::FloorDiv, ExprKind::CeilDiv,
                            ExprKind::Mod,     ExprKind::Min,
                            ExprKind::Max,     ExprKind::Pow};
  const ExprKind kind = kinds[kind_pick(rng)];
  if (kind == ExprKind::Pow) {
    std::uniform_int_distribution<std::int64_t> exponent(0, 3);
    return Expr::make(kind,
                      {random_expr(rng, depth - 1), Expr(exponent(rng))});
  }
  std::vector<Expr> operands;
  const int arity =
      (kind == ExprKind::Add || kind == ExprKind::Mul)
          ? std::uniform_int_distribution<int>(2, 3)(rng)
          : 2;
  for (int i = 0; i < arity; ++i) {
    operands.push_back(random_expr(rng, depth - 1));
  }
  return Expr::make(kind, std::move(operands));
}

std::optional<std::int64_t> guarded(const Expr& expr, const SymbolMap& map) {
  try {
    return expr.evaluate(map);
  } catch (const std::domain_error&) {
    return std::nullopt;
  }
}

std::optional<std::int64_t> guarded(const CompiledExpr& compiled,
                                    const std::vector<std::int64_t>& env) {
  try {
    return compiled.evaluate(env.data());
  } catch (const std::domain_error&) {
    return std::nullopt;
  }
}

TEST(CompiledExpr, MatchesTreeEvaluationOnRandomExpressions) {
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<std::int64_t> value(-10, 10);
  for (int trial = 0; trial < 2000; ++trial) {
    const Expr expr = random_expr(rng, 4);
    SymbolTable table;
    const CompiledExpr compiled = CompiledExpr::compile(expr, table);

    SymbolMap binding;
    for (const std::string& name : kSymbols) binding[name] = value(rng);
    std::vector<std::int64_t> env(table.size());
    for (std::size_t slot = 0; slot < table.size(); ++slot) {
      env[slot] = binding.at(table.names()[slot]);
    }

    const auto expected = guarded(expr, binding);
    const auto actual = guarded(compiled, env);
    ASSERT_EQ(expected.has_value(), actual.has_value())
        << "trial " << trial << ": " << expr.to_string();
    if (expected) {
      ASSERT_EQ(*expected, *actual)
          << "trial " << trial << ": " << expr.to_string();
    }
  }
}

TEST(CompiledExpr, ConstantExpressionNeedsNoEnvironment) {
  SymbolTable table;
  const CompiledExpr compiled =
      CompiledExpr::compile(parse("(3 + 4) * 2 - 1"), table);
  EXPECT_TRUE(compiled.slots().empty());
  EXPECT_EQ(compiled.evaluate(nullptr), 13);
}

TEST(CompiledExpr, SlotsAreDeduplicatedAndSorted) {
  SymbolTable table;
  const CompiledExpr compiled =
      CompiledExpr::compile(parse("N * M + N * N + M"), table);
  ASSERT_EQ(compiled.slots().size(), 2u);
  EXPECT_LT(compiled.slots()[0], compiled.slots()[1]);
  EXPECT_EQ(table.size(), 2u);
}

TEST(CompiledExpr, SymbolTableSharesSlotsAcrossExpressions) {
  SymbolTable table;
  const CompiledExpr a = CompiledExpr::compile(parse("N + K"), table);
  const CompiledExpr b = CompiledExpr::compile(parse("K * 2"), table);
  // K got one slot; both programs read it from the same place.
  const int k = table.lookup("K");
  ASSERT_GE(k, 0);
  std::vector<std::int64_t> env(table.size(), 0);
  env[static_cast<std::size_t>(table.lookup("N"))] = 10;
  env[static_cast<std::size_t>(k)] = 7;
  EXPECT_EQ(a.evaluate(env.data()), 17);
  EXPECT_EQ(b.evaluate(env.data()), 14);
}

TEST(CompiledExpr, CheckedEvaluateReportsUnboundSymbolByName) {
  SymbolTable table;
  const CompiledExpr compiled = CompiledExpr::compile(parse("N + M"), table);
  std::vector<std::int64_t> env;
  std::vector<char> bound;
  table.bind(SymbolMap{{"N", 3}}, env, bound);
  try {
    compiled.evaluate(env.data(), bound.data(), &table.names());
    FAIL() << "expected UnboundSymbolError";
  } catch (const UnboundSymbolError& error) {
    EXPECT_EQ(error.symbol(), "M");
  }
  // Binding the missing symbol makes the same call succeed.
  env[static_cast<std::size_t>(table.lookup("M"))] = 4;
  bound[static_cast<std::size_t>(table.lookup("M"))] = 1;
  EXPECT_EQ(compiled.evaluate(env.data(), bound.data(), &table.names()), 7);
}

TEST(CompiledExpr, CompileMemoIsBounded) {
  // A long-lived table compiling an unbounded stream of distinct
  // expressions must not grow its memo without bound: at the cap it is
  // cleared wholesale.
  SymbolTable table;
  const std::size_t cap = SymbolTable::kCompileMemoCap;
  for (std::size_t n = 0; n < cap + 100; ++n) {
    CompiledExpr::compile(
        Expr(static_cast<std::int64_t>(n)) + Expr::symbol("N"), table);
    ASSERT_LE(table.memo_size(), cap);
  }
  // Compilation after eviction still produces working programs (and
  // re-memoizes them).
  const CompiledExpr again = CompiledExpr::compile(parse("N + 1"), table);
  std::vector<std::int64_t> env(table.size(), 0);
  env[static_cast<std::size_t>(table.lookup("N"))] = 41;
  EXPECT_EQ(again.evaluate(env.data()), 42);
  EXPECT_GT(table.memo_size(), 0u);
}

TEST(CompiledExpr, DeepExpressionExceedsInlineStack) {
  // Chain deep enough to exercise the heap-stack fallback (inline
  // capacity is 32).
  Expr expr = Expr::symbol("N");
  for (int i = 0; i < 80; ++i) {
    expr = Expr::make(ExprKind::Min, {Expr(1000 + i), expr});
  }
  SymbolTable table;
  const CompiledExpr compiled = CompiledExpr::compile(expr, table);
  std::vector<std::int64_t> env(table.size(), 42);
  EXPECT_EQ(compiled.evaluate(env.data()),
            expr.evaluate(SymbolMap{{"N", 42}}));
}

}  // namespace
}  // namespace dmv::symbolic
