// RFC 1960 / OSGi LDAP filter tests: grammar, operators, type-aware
// comparison, wildcards, escaping and error cases — plus seeded property
// tests (parse/to_string round-trip over generated filters, and a mutation
// corpus that must never crash the parser).
#include <gtest/gtest.h>

#include <string>

#include "osgi/ldap_filter.hpp"
#include "util/rng.hpp"

namespace drt::osgi {
namespace {

Properties camera_props() {
  Properties props;
  props.set("component.name", std::string("camera"));
  props.set("priority", std::int64_t{2});
  props.set("cpuusage", 0.1);
  props.set("enabled", true);
  props.set("objectClass",
            std::vector<std::string>{"drcom.RtComponentManagement",
                                     "drcom.Tunable"});
  return props;
}

bool matches(const std::string& filter_text, const Properties& props) {
  auto filter = Filter::parse(filter_text);
  EXPECT_TRUE(filter.ok()) << filter_text << ": "
                           << (filter.ok() ? "" : filter.error().message);
  return filter.ok() && filter.value().matches(props);
}

TEST(LdapFilter, EqualityOnStrings) {
  const auto props = camera_props();
  EXPECT_TRUE(matches("(component.name=camera)", props));
  EXPECT_FALSE(matches("(component.name=display)", props));
  EXPECT_FALSE(matches("(no.such.key=x)", props));
}

TEST(LdapFilter, KeysAreCaseInsensitive) {
  const auto props = camera_props();
  EXPECT_TRUE(matches("(Component.Name=camera)", props));
  // ...but string values are case-sensitive for '='.
  EXPECT_FALSE(matches("(component.name=CAMERA)", props));
}

TEST(LdapFilter, ApproxFoldsCaseAndWhitespace) {
  const auto props = camera_props();
  EXPECT_TRUE(matches("(component.name~=CAMERA)", props));
  EXPECT_TRUE(matches("(component.name~= ca mera )", props));
}

TEST(LdapFilter, NumericComparisons) {
  const auto props = camera_props();
  EXPECT_TRUE(matches("(priority=2)", props));
  EXPECT_TRUE(matches("(priority>=2)", props));
  EXPECT_TRUE(matches("(priority<=2)", props));
  EXPECT_TRUE(matches("(priority>=1)", props));
  EXPECT_FALSE(matches("(priority>=3)", props));
  EXPECT_TRUE(matches("(cpuusage<=0.5)", props));
  EXPECT_FALSE(matches("(cpuusage>=0.5)", props));
}

TEST(LdapFilter, IntegerComparedAgainstDoubleLiteral) {
  const auto props = camera_props();
  EXPECT_TRUE(matches("(priority>=1.5)", props));
  EXPECT_FALSE(matches("(priority>=2.5)", props));
}

TEST(LdapFilter, BooleanEquality) {
  const auto props = camera_props();
  EXPECT_TRUE(matches("(enabled=true)", props));
  EXPECT_FALSE(matches("(enabled=false)", props));
  EXPECT_FALSE(matches("(enabled=banana)", props));
}

TEST(LdapFilter, Presence) {
  const auto props = camera_props();
  EXPECT_TRUE(matches("(priority=*)", props));
  EXPECT_FALSE(matches("(no.such.key=*)", props));
}

TEST(LdapFilter, SubstringWildcards) {
  const auto props = camera_props();
  EXPECT_TRUE(matches("(component.name=cam*)", props));
  EXPECT_TRUE(matches("(component.name=*era)", props));
  EXPECT_TRUE(matches("(component.name=*ame*)", props));
  EXPECT_TRUE(matches("(component.name=c*m*a)", props));
  EXPECT_FALSE(matches("(component.name=cam*x)", props));
  EXPECT_FALSE(matches("(component.name=x*era)", props));
}

TEST(LdapFilter, SubstringAnchorsDoNotOverlap) {
  Properties props;
  props.set("k", std::string("aba"));
  EXPECT_TRUE(matches("(k=a*a)", props));
  props.set("k", std::string("a"));
  // "a*a" needs at least two characters.
  EXPECT_FALSE(matches("(k=a*a)", props));
}

TEST(LdapFilter, ArrayValuesMatchAnyElement) {
  const auto props = camera_props();
  EXPECT_TRUE(matches("(objectClass=drcom.RtComponentManagement)", props));
  EXPECT_TRUE(matches("(objectClass=drcom.Tunable)", props));
  EXPECT_FALSE(matches("(objectClass=other)", props));
  EXPECT_TRUE(matches("(objectClass=drcom.*)", props));
}

TEST(LdapFilter, CompositeAndOrNot) {
  const auto props = camera_props();
  EXPECT_TRUE(matches("(&(component.name=camera)(priority<=3))", props));
  EXPECT_FALSE(matches("(&(component.name=camera)(priority<=1))", props));
  EXPECT_TRUE(matches("(|(component.name=nope)(priority=2))", props));
  EXPECT_FALSE(matches("(|(component.name=nope)(priority=9))", props));
  EXPECT_TRUE(matches("(!(component.name=nope))", props));
  EXPECT_FALSE(matches("(!(component.name=camera))", props));
}

TEST(LdapFilter, DeepNesting) {
  const auto props = camera_props();
  EXPECT_TRUE(matches(
      "(&(|(component.name=display)(component.name=camera))"
      "(!(priority>=5))(enabled=true))",
      props));
}

TEST(LdapFilter, EscapedSpecialCharacters) {
  Properties props;
  props.set("path", std::string("a(b)c*d\\e"));
  EXPECT_TRUE(matches(R"((path=a\(b\)c\*d\\e))", props));
  // An escaped star is a literal, not a wildcard.
  props.set("star", std::string("x*y"));
  EXPECT_TRUE(matches(R"((star=x\*y))", props));
  EXPECT_FALSE(matches(R"((star=x\*z))", props));
}

TEST(LdapFilter, WhitespaceTolerated) {
  const auto props = camera_props();
  EXPECT_TRUE(matches("( &  (component.name=camera) (priority=2) )", props));
}

struct BadFilter {
  const char* name;
  const char* text;
};

// ctest names a value-parameterized case by its printed value: print the
// case name, not the struct's (address-valued) bytes.
void PrintTo(const BadFilter& bad, std::ostream* out) { *out << bad.name; }

class LdapFilterErrors : public ::testing::TestWithParam<BadFilter> {};

TEST_P(LdapFilterErrors, Rejected) {
  auto filter = Filter::parse(GetParam().text);
  ASSERT_FALSE(filter.ok()) << GetParam().name;
  EXPECT_EQ(filter.error().code, "osgi.bad_filter");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LdapFilterErrors,
    ::testing::Values(BadFilter{"empty", ""},
                      BadFilter{"no_parens", "a=b"},
                      BadFilter{"unclosed", "(a=b"},
                      BadFilter{"trailing", "(a=b))"},
                      BadFilter{"empty_composite", "(&)"},
                      BadFilter{"missing_operand", "(!)"},
                      BadFilter{"no_operator", "(abc)"},
                      BadFilter{"star_in_gte", "(a>=1*2)"},
                      BadFilter{"unescaped_paren", "(a=b(c)"},
                      BadFilter{"empty_attr", "(=b)"}));

TEST(LdapFilter, ToStringIsNormalizedSource) {
  auto filter = Filter::parse("  (a=b)  ");
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(filter.value().to_string(), "(a=b)");
}

// ------------------------------------------------------- property tests --

/// Renders a random filter expression. Leaves draw from a small attribute /
/// value pool so generated filters sometimes match the properties below.
std::string random_filter(Rng& rng, int depth) {
  static const char* kAttrs[] = {"component.name", "priority", "cpuusage",
                                 "enabled", "objectClass"};
  static const char* kValues[] = {"camera", "display", "2", "0.1",
                                  "true", "drcom.*", "cam*", "*era", "*"};
  if (depth >= 3 || rng.uniform(0, 2) == 0) {
    const char* attr = kAttrs[rng.uniform(0, 4)];
    const char* value = kValues[rng.uniform(0, 8)];
    static const char* kOps[] = {"=", ">=", "<=", "~="};
    std::string op = kOps[rng.uniform(0, 3)];
    // Wildcards are only legal with '='.
    if (std::string(value).find('*') != std::string::npos) op = "=";
    return std::string("(") + attr + op + value + ")";
  }
  const std::int64_t pick = rng.uniform(0, 2);
  if (pick == 0) {
    std::string out = "(!";
    out += random_filter(rng, depth + 1);
    return out + ")";
  }
  std::string out = pick == 1 ? "(&" : "(|";
  const std::int64_t arity = rng.uniform(1, 3);
  for (std::int64_t i = 0; i < arity; ++i) {
    out += random_filter(rng, depth + 1);
  }
  return out + ")";
}

// parse -> to_string -> parse must be a fixpoint: the reparse of the
// normalized text renders identically AND matches the same property sets.
TEST(LdapFilterProperties, ParseToStringParseRoundTrip) {
  const auto props = camera_props();
  Properties empty;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const std::string source = random_filter(rng, 0);
    auto first = Filter::parse(source);
    ASSERT_TRUE(first.ok()) << source << ": " << first.error().message;
    const std::string normalized = first.value().to_string();
    auto second = Filter::parse(normalized);
    ASSERT_TRUE(second.ok())
        << "normalized form rejected: " << normalized;
    EXPECT_EQ(second.value().to_string(), normalized) << source;
    EXPECT_EQ(first.value().matches(props), second.value().matches(props))
        << source;
    EXPECT_EQ(first.value().matches(empty), second.value().matches(empty))
        << source;
  }
}

// Mutation corpus: random edits of a valid filter must either parse (and
// then normalize to a fixpoint) or fail with the structured error code —
// never crash, never return an unusable success.
TEST(LdapFilterProperties, MutatedFiltersNeverCrash) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 7919);
    std::string text = random_filter(rng, 0);
    const std::int64_t edits = rng.uniform(1, 3);
    for (std::int64_t i = 0; i < edits; ++i) {
      static const char kBytes[] = "()&|!=<>~*\\ ab5\0";
      switch (rng.uniform(0, 2)) {
        case 0:  // truncate
          text = text.substr(0, rng.uniform(0, text.size()));
          break;
        case 1:  // delete one byte
          if (!text.empty()) {
            text.erase(static_cast<std::size_t>(
                rng.uniform(0, static_cast<std::int64_t>(text.size()) - 1)));
          }
          break;
        default:  // insert one byte (incl. an embedded NUL)
          text.insert(static_cast<std::size_t>(
                          rng.uniform(0, text.size())),
                      1, kBytes[rng.uniform(0, 15)]);
          break;
      }
    }
    auto filter = Filter::parse(text);
    if (!filter.ok()) {
      EXPECT_EQ(filter.error().code, "osgi.bad_filter") << text;
      continue;
    }
    const std::string normalized = filter.value().to_string();
    auto reparsed = Filter::parse(normalized);
    ASSERT_TRUE(reparsed.ok()) << "accepted '" << text
                               << "' but rejected its own normalization '"
                               << normalized << "'";
    EXPECT_EQ(reparsed.value().to_string(), normalized);
  }
}

}  // namespace
}  // namespace drt::osgi
