#include "dmv/symbolic/expr.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>

#include "dmv/symbolic/parser.hpp"

namespace dmv::symbolic {
namespace {

TEST(Expr, DefaultIsZero) {
  Expr e;
  EXPECT_TRUE(e.is_constant(0));
  EXPECT_EQ(e.evaluate({}), 0);
}

TEST(Expr, ConstantRoundTrip) {
  EXPECT_EQ(Expr(42).constant_value(), 42);
  EXPECT_EQ(Expr(-7).constant_value(), -7);
  EXPECT_EQ(Expr(1 << 20).evaluate({}), 1 << 20);
}

TEST(Expr, SymbolEvaluation) {
  Expr n = Expr::symbol("N");
  EXPECT_TRUE(n.is_symbol());
  EXPECT_EQ(n.evaluate({{"N", 5}}), 5);
  EXPECT_THROW(n.evaluate({}), UnboundSymbolError);
}

TEST(Expr, UnboundSymbolErrorNamesTheSymbol) {
  try {
    (Expr::symbol("SM") * 2).evaluate({{"B", 1}});
    FAIL() << "expected UnboundSymbolError";
  } catch (const UnboundSymbolError& error) {
    EXPECT_EQ(error.symbol(), "SM");
  }
}

TEST(Expr, BasicArithmetic) {
  Expr n = Expr::symbol("N");
  SymbolMap env{{"N", 10}};
  EXPECT_EQ((n + 3).evaluate(env), 13);
  EXPECT_EQ((n - 3).evaluate(env), 7);
  EXPECT_EQ((n * n).evaluate(env), 100);
  EXPECT_EQ((n / 3).evaluate(env), 3);
  EXPECT_EQ((n % 3).evaluate(env), 1);
  EXPECT_EQ((-n).evaluate(env), -10);
}

TEST(Expr, MinMaxPowCeilDiv) {
  Expr n = Expr::symbol("N");
  SymbolMap env{{"N", 10}};
  EXPECT_EQ(min(n, Expr(4)).evaluate(env), 4);
  EXPECT_EQ(max(n, Expr(4)).evaluate(env), 10);
  EXPECT_EQ(pow(n, Expr(3)).evaluate(env), 1000);
  EXPECT_EQ(ceil_div(n, Expr(3)).evaluate(env), 4);
  EXPECT_EQ(ceil_div(Expr(9), Expr(3)).constant_value(), 3);
}

TEST(Expr, FloorDivisionSemantics) {
  // Floor semantics for negatives, matching index arithmetic.
  EXPECT_EQ(floor_div_i64(7, 2), 3);
  EXPECT_EQ(floor_div_i64(-7, 2), -4);
  EXPECT_EQ(floor_div_i64(7, -2), -4);
  EXPECT_EQ(mod_i64(-7, 2), 1);
  EXPECT_EQ(mod_i64(7, 2), 1);
  EXPECT_EQ(ceil_div_i64(-7, 2), -3);
}

TEST(Expr, DivisionByZeroThrows) {
  EXPECT_THROW(floor_div_i64(1, 0), std::domain_error);
  EXPECT_THROW(mod_i64(1, 0), std::domain_error);
  EXPECT_THROW((Expr(1) / Expr(0)).evaluate({}), std::domain_error);
}

TEST(Expr, TryEvaluate) {
  Expr n = Expr::symbol("N");
  EXPECT_EQ(n.try_evaluate({{"N", 3}}), 3);
  EXPECT_EQ(n.try_evaluate({}), std::nullopt);
  EXPECT_EQ((Expr(1) / Expr::symbol("Z")).try_evaluate({{"Z", 0}}),
            std::nullopt);
}

TEST(Simplify, ConstantFolding) {
  EXPECT_TRUE((Expr(2) + Expr(3)).is_constant(5));
  EXPECT_TRUE((Expr(2) * Expr(3)).is_constant(6));
  EXPECT_TRUE(pow(Expr(2), Expr(10)).is_constant(1024));
}

TEST(Simplify, Identities) {
  Expr n = Expr::symbol("N");
  EXPECT_EQ((n + 0).to_string(), "N");
  EXPECT_EQ((n * 1).to_string(), "N");
  EXPECT_TRUE((n * 0).is_constant(0));
  EXPECT_EQ((n / 1).to_string(), "N");
  EXPECT_TRUE((n - n).is_constant(0));
  EXPECT_TRUE((Expr(0) % n).is_constant(0));
  EXPECT_TRUE(pow(n, Expr(0)).is_constant(1));
  EXPECT_EQ(pow(n, Expr(1)).to_string(), "N");
}

TEST(Simplify, LikeTermCollection) {
  Expr n = Expr::symbol("N");
  EXPECT_EQ((n + n).to_string(), "2*N");
  EXPECT_EQ((n * 3 + n * 4).to_string(), "7*N");
  EXPECT_EQ((n * 3 - n * 3).to_string(), "0");
}

TEST(Simplify, CanonicalOrdering) {
  // Construction order does not matter after simplification.
  Expr a = Expr::symbol("A"), b = Expr::symbol("B");
  EXPECT_EQ((a + b).to_string(), (b + a).to_string());
  EXPECT_EQ((a * b).to_string(), (b * a).to_string());
}

TEST(Simplify, ExpandedDistributes) {
  Expr n = Expr::symbol("N");
  EXPECT_TRUE(expanded((n + 1) * (n + 2))
                  .equals(n * n + 3 * n + Expr(2)));
  EXPECT_TRUE(expanded(pow(n + 1, Expr(2))).equals(n * n + 2 * n + 1));
}

TEST(Simplify, ExactDivisionCancellation) {
  Expr n = Expr::symbol("N"), t = Expr::symbol("T");
  // The symbolic tile-count shape: (N*T)/T -> N.
  EXPECT_EQ(((n * t) / t).to_string(), "N");
  EXPECT_EQ((n / n).to_string(), "1");
  EXPECT_TRUE(((n * t) % t).is_constant(0));
  EXPECT_TRUE((n % n).is_constant(0));
  // Constant coefficient divides out: (6*N)/3 -> 2*N.
  EXPECT_EQ(((Expr(6) * n) / 3).to_string(), "2*N");
  EXPECT_EQ(((Expr(6) * n) / 6).to_string(), "N");
  // No unsound cancellation when the factor is absent.
  EXPECT_EQ(((n + 1) / t).kind(), ExprKind::FloorDiv);
  EXPECT_EQ(((Expr(5) * n) / 3).kind(), ExprKind::FloorDiv);
}

TEST(Equals, PolynomialEquivalence) {
  Expr n = Expr::symbol("N"), m = Expr::symbol("M");
  EXPECT_TRUE((2 * (n + 1)).equals(2 * n + 2));
  EXPECT_TRUE(((n + m) * (n + m)).equals(n * n + 2 * n * m + m * m));
  EXPECT_FALSE((n + 1).equals(n + 2));
  EXPECT_FALSE(n.equals(m));
}

TEST(Substitute, PartialBinding) {
  Expr e = Expr::symbol("N") * Expr::symbol("M") + Expr::symbol("N");
  Expr bound = e.substitute(SymbolMap{{"N", 3}});
  EXPECT_EQ(bound.free_symbols(), std::set<std::string>{"M"});
  EXPECT_EQ(bound.evaluate({{"M", 5}}), 18);
}

TEST(Substitute, ExpressionReplacement) {
  Expr e = Expr::symbol("i") + 1;
  Expr replaced = e.substitute(
      std::map<std::string, Expr>{{"i", Expr::symbol("j") * 2}});
  EXPECT_EQ(replaced.evaluate({{"j", 4}}), 9);
}

TEST(FreeSymbols, CollectsAll) {
  Expr e = parse("B*H + min(SM, P) - ceil_div(I, 4)");
  EXPECT_EQ(e.free_symbols(),
            (std::set<std::string>{"B", "H", "SM", "P", "I"}));
}

TEST(Parser, Precedence) {
  EXPECT_EQ(parse("2 + 3 * 4").constant_value(), 14);
  EXPECT_EQ(parse("(2 + 3) * 4").constant_value(), 20);
  EXPECT_EQ(parse("2 ** 3 ** 2").constant_value(), 512);  // Right-assoc.
  EXPECT_EQ(parse("10 - 3 - 2").constant_value(), 5);
  EXPECT_EQ(parse("-3 + 5").constant_value(), 2);
  EXPECT_EQ(parse("7 / 2").constant_value(), 3);
  EXPECT_EQ(parse("7 % 4").constant_value(), 3);
}

TEST(Parser, Functions) {
  EXPECT_EQ(parse("min(3, 5)").constant_value(), 3);
  EXPECT_EQ(parse("max(3, 5)").constant_value(), 5);
  EXPECT_EQ(parse("ceil_div(7, 2)").constant_value(), 4);
  EXPECT_EQ(parse("ceiling(7, 2)").constant_value(), 4);
  EXPECT_EQ(parse("pow(2, 5)").constant_value(), 32);
}

TEST(Parser, Symbols) {
  Expr e = parse("B * H * SM * P");
  EXPECT_EQ(e.evaluate({{"B", 8}, {"H", 16}, {"SM", 512}, {"P", 64}}),
            8LL * 16 * 512 * 64);
}

TEST(Parser, Whitespace) {
  EXPECT_EQ(parse("  1+ 2 ").constant_value(), 3);
  EXPECT_EQ(parse("\tN  *\t2").evaluate({{"N", 4}}), 8);
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("1 +"), ParseError);
  EXPECT_THROW(parse("(1"), ParseError);
  EXPECT_THROW(parse("1 2"), ParseError);
  EXPECT_THROW(parse("foo(1)"), ParseError);
  EXPECT_THROW(parse("min(1)"), ParseError);
  EXPECT_THROW(parse("$"), ParseError);
}

TEST(Parser, Int64LimitsRoundTrip) {
  // INT64_MIN prints as -9223372036854775808, never negated, and that
  // magnitude is a literal only as unary minus's direct operand.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const Expr n = Expr::symbol("N");
  for (const Expr& e : {Expr(kMin), n + Expr(kMin), Expr(kMin) - n,
                        Expr(kMin) * n}) {
    EXPECT_EQ(Expr::compare(parse(e.to_string()), e), 0) << e.to_string();
  }
  EXPECT_EQ(parse("9223372036854775807").constant_value(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_THROW(parse("9223372036854775808"), ParseError);
  EXPECT_THROW(parse("99999999999999999999"), ParseError);
  EXPECT_THROW(parse("-9223372036854775809"), ParseError);
}

TEST(Parser, ErrorCarriesPosition) {
  try {
    parse("1 + $");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.position(), 4u);
  }
}

TEST(Printer, Readability) {
  EXPECT_EQ(parse("N - 1").to_string(), "N - 1");
  EXPECT_EQ(parse("1 - N").to_string(), "1 - N");
  EXPECT_EQ(parse("(I+4)*(J+4)").to_string(), "(4 + I)*(4 + J)");
  EXPECT_EQ(parse("N % 4").to_string(), "N % 4");
  EXPECT_EQ(parse("-N - 1").to_string(), "-1 - N");
}

// Property: printing then re-parsing preserves value on random
// expressions built from a small grammar.
class RandomExprProperty : public ::testing::TestWithParam<int> {};

Expr random_expr(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind(0, depth <= 0 ? 1 : 6);
  switch (kind(rng)) {
    case 0:
      return Expr(std::uniform_int_distribution<int>(0, 9)(rng));
    case 1: {
      const char* names[] = {"A", "B", "C"};
      return Expr::symbol(
          names[std::uniform_int_distribution<int>(0, 2)(rng)]);
    }
    case 2:
      return random_expr(rng, depth - 1) + random_expr(rng, depth - 1);
    case 3:
      return random_expr(rng, depth - 1) * random_expr(rng, depth - 1);
    case 4:
      return random_expr(rng, depth - 1) - random_expr(rng, depth - 1);
    case 5:
      return min(random_expr(rng, depth - 1), random_expr(rng, depth - 1));
    default:
      return max(random_expr(rng, depth - 1), random_expr(rng, depth - 1));
  }
}

TEST_P(RandomExprProperty, PrintParseRoundTripPreservesValue) {
  std::mt19937 rng(GetParam());
  const SymbolMap env{{"A", 3}, {"B", 7}, {"C", 11}};
  for (int i = 0; i < 25; ++i) {
    Expr e = random_expr(rng, 4);
    Expr reparsed = parse(e.to_string());
    EXPECT_EQ(e.evaluate(env), reparsed.evaluate(env))
        << "expr: " << e.to_string();
  }
}

TEST_P(RandomExprProperty, SubstituteAllEqualsEvaluate) {
  std::mt19937 rng(GetParam() + 1000);
  const SymbolMap env{{"A", 2}, {"B", 5}, {"C", 9}};
  for (int i = 0; i < 25; ++i) {
    Expr e = random_expr(rng, 4);
    Expr substituted = e.substitute(env);
    ASSERT_TRUE(substituted.is_constant()) << substituted.to_string();
    EXPECT_EQ(substituted.constant_value(), e.evaluate(env));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExprProperty,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace dmv::symbolic
