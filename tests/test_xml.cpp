// XML parser/DOM/writer tests, including the exact descriptor dialect of the
// paper's Figure 2.
#include <gtest/gtest.h>

#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace drt::xml {
namespace {

TEST(XmlParser, MinimalElement) {
  auto doc = parse("<root/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->name, "root");
  EXPECT_TRUE(doc.value().root->children.empty());
}

TEST(XmlParser, DeclarationAndAttributes) {
  auto doc = parse(R"(<?xml version="1.0" encoding="UTF-8"?>
    <task name="camera" priority='2'/>)");
  ASSERT_TRUE(doc.ok());
  const Element& root = *doc.value().root;
  EXPECT_EQ(root.attribute("name").value(), "camera");
  EXPECT_EQ(root.attribute("priority").value(), "2");
  EXPECT_FALSE(root.attribute("missing").has_value());
  EXPECT_EQ(root.attribute_or("missing", "dflt"), "dflt");
}

TEST(XmlParser, NestedElementsInDocumentOrder) {
  auto doc = parse("<a><b/><c><d/></c><b/></a>");
  ASSERT_TRUE(doc.ok());
  const Element& root = *doc.value().root;
  const auto children = root.child_elements();
  ASSERT_EQ(children.size(), 3u);
  EXPECT_EQ(children[0]->name, "b");
  EXPECT_EQ(children[1]->name, "c");
  EXPECT_EQ(children[2]->name, "b");
  EXPECT_EQ(root.children_named("b").size(), 2u);
  ASSERT_NE(root.first_child("c"), nullptr);
  EXPECT_EQ(root.first_child("c")->child_elements().size(), 1u);
}

TEST(XmlParser, TextContentAndEntities) {
  auto doc = parse("<m>a &lt;b&gt; &amp; &quot;c&quot; &apos;d&apos;</m>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->text(), "a <b> & \"c\" 'd'");
}

TEST(XmlParser, NumericCharacterReferences) {
  auto doc = parse("<m>&#65;&#x42;&#xe9;</m>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->text(), "AB\xC3\xA9");  // A, B, e-acute (UTF-8)
}

TEST(XmlParser, CDataIsLiteralText) {
  auto doc = parse("<m><![CDATA[<not & parsed>]]></m>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->text(), "<not & parsed>");
}

TEST(XmlParser, CommentsPreserved) {
  auto doc = parse("<a><!-- hello --><b/></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().root->children.size(), 2u);
  const auto* comment = std::get_if<Comment>(&doc.value().root->children[0]);
  ASSERT_NE(comment, nullptr);
  EXPECT_EQ(comment->value, " hello ");
}

TEST(XmlParser, ProcessingInstruction) {
  auto doc = parse("<?xml version=\"1.0\"?><?style url?><a/>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().prolog.size(), 1u);
  const auto* pi =
      std::get_if<ProcessingInstruction>(&doc.value().prolog[0]);
  ASSERT_NE(pi, nullptr);
  EXPECT_EQ(pi->target, "style");
}

TEST(XmlParser, QualifiedNames) {
  auto doc = parse("<drt:component xmlns:drt=\"urn:drt\"/>");
  ASSERT_TRUE(doc.ok());
  const Element& root = *doc.value().root;
  EXPECT_EQ(root.name, "drt:component");
  EXPECT_EQ(root.local_name(), "component");
  EXPECT_EQ(root.prefix(), "drt");
}

TEST(XmlParser, AttributeEntityDecoding) {
  auto doc = parse("<a v=\"x&amp;y &#61; z\"/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->attribute("v").value(), "x&y = z");
}

// ---------------------------------------------------------------- errors --

struct BadInput {
  const char* name;
  const char* text;
};

// ctest names a value-parameterized case by its printed value: print the
// case name, not the struct's (address-valued) bytes.
void PrintTo(const BadInput& bad, std::ostream* out) { *out << bad.name; }

class XmlParserErrors : public ::testing::TestWithParam<BadInput> {};

TEST_P(XmlParserErrors, Rejected) {
  auto doc = parse(GetParam().text);
  ASSERT_FALSE(doc.ok()) << GetParam().name;
  EXPECT_EQ(doc.error().code, "xml.parse_error");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, XmlParserErrors,
    ::testing::Values(
        BadInput{"empty", ""},
        BadInput{"unclosed", "<a>"},
        BadInput{"mismatched", "<a></b>"},
        BadInput{"double_root_content", "<a/>junk"},
        BadInput{"bad_entity", "<a>&nosuch;</a>"},
        BadInput{"unquoted_attr", "<a v=1/>"},
        BadInput{"duplicate_attr", "<a v=\"1\" v=\"2\"/>"},
        BadInput{"lt_in_attr", "<a v=\"<\"/>"},
        BadInput{"doctype", "<!DOCTYPE a><a/>"},
        BadInput{"double_dash_comment", "<a><!-- x -- y --></a>"},
        BadInput{"unterminated_cdata", "<a><![CDATA[x</a>"},
        BadInput{"missing_attr_ws", "<a v=\"1\"w=\"2\"/>"}));

TEST(XmlParser, ErrorsCarryLineAndColumn) {
  auto doc = parse("<a>\n  <b>\n</a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.error().message.find("line"), std::string::npos);
}

// Truncation property: cutting a well-formed document at ANY byte must
// produce a structured parse error (never a crash, never silent acceptance),
// and the error must carry a position.
TEST(XmlParser, EveryTruncationIsAStructuredError) {
  const std::string source =
      "<?xml version=\"1.0\"?>\n"
      "<drt:component name=\"cam\" type=\"periodic\">\n"
      "  <implementation bincode=\"ua.pats.RTComponent\"/>\n"
      "  <!-- note --><outport name=\"img\" interface=\"RTAI.SHM\""
      " type=\"Byte\" size=\"4\"/>\n"
      "  <m>a &lt;b&gt; <![CDATA[raw]]></m>\n"
      "</drt:component>\n";
  ASSERT_TRUE(parse(source).ok());
  for (std::size_t cut = 0; cut + 1 < source.size(); ++cut) {
    auto doc = parse(source.substr(0, cut));
    ASSERT_FALSE(doc.ok()) << "prefix of length " << cut << " parsed";
    EXPECT_EQ(doc.error().code, "xml.parse_error") << "cut=" << cut;
    EXPECT_NE(doc.error().message.find("line"), std::string::npos)
        << "cut=" << cut << ": no position in '" << doc.error().message
        << "'";
  }
}

// Recursive descent has a hard nesting ceiling so adversarial input cannot
// overflow the native stack.
TEST(XmlParser, NestingDepthIsBounded) {
  auto nested = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += "<a>";
    text += "<leaf/>";
    for (int i = 0; i < depth; ++i) text += "</a>";
    return text;
  };
  EXPECT_TRUE(parse(nested(150)).ok());
  auto too_deep = parse(nested(5'000));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.error().code, "xml.parse_error");
  EXPECT_NE(too_deep.error().message.find("depth"), std::string::npos);
}

TEST(XmlParser, ExpectedRootHelper) {
  EXPECT_TRUE(parse_expecting_root("<drt:component/>", "component").ok());
  EXPECT_TRUE(parse_expecting_root("<component/>", "component").ok());
  auto wrong = parse_expecting_root("<other/>", "component");
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.error().code, "xml.unexpected_root");
}

// ---------------------------------------------------------------- writer --

TEST(XmlWriter, EscapesSpecials) {
  EXPECT_EQ(escape_text("a<b>&c"), "a&lt;b&gt;&amp;c");
  EXPECT_EQ(escape_attribute("\"'<>&"), "&quot;&apos;&lt;&gt;&amp;");
}

TEST(XmlWriter, RoundTripsStructure) {
  const char* source = R"(<drt:component name="camera" type="periodic">
    <implementation bincode="ua.pats.RTComponent"/>
    <outport name="images" interface="RTAI.SHM" type="Byte" size="400"/>
  </drt:component>)";
  auto doc = parse(source);
  ASSERT_TRUE(doc.ok());
  const std::string serialized = write(doc.value());
  auto reparsed = parse(serialized);
  ASSERT_TRUE(reparsed.ok());
  const Element& a = *doc.value().root;
  const Element& b = *reparsed.value().root;
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.attributes.size(), b.attributes.size());
  EXPECT_EQ(a.child_elements().size(), b.child_elements().size());
  EXPECT_EQ(b.first_child("outport")->attribute("size").value(), "400");
}

TEST(XmlWriter, RoundTripsSpecialCharacters) {
  Element root;
  root.name = "m";
  root.set_attribute("v", "a<b>&\"c\"");
  root.append_text("x & y < z");
  auto reparsed = parse(write(root));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().root->attribute("v").value(), "a<b>&\"c\"");
  // Pretty printer pads with whitespace; compare trimmed content.
  const std::string text = reparsed.value().root->text();
  EXPECT_NE(text.find("x & y < z"), std::string::npos);
}

TEST(XmlWriter, CompactModeHasNoNewlines) {
  Element root;
  root.name = "a";
  root.append_child("b");
  WriteOptions options;
  options.pretty = false;
  options.include_declaration = false;
  EXPECT_EQ(write(root, options), "<a><b/></a>");
}

TEST(XmlDom, BuilderApi) {
  Element root;
  root.name = "component";
  auto& port = root.append_child("outport");
  port.set_attribute("name", "images");
  port.set_attribute("name", "frames");  // overwrite, not duplicate
  ASSERT_EQ(port.attributes.size(), 1u);
  EXPECT_EQ(port.attribute("name").value(), "frames");
  EXPECT_TRUE(root.has_attribute("name") == false);
}

}  // namespace
}  // namespace drt::xml
