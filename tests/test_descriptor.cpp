// DRCom descriptor parsing/validation, pinned to the paper's Figure-2 sample.
#include <gtest/gtest.h>

#include <cmath>

#include "drcom/descriptor.hpp"

namespace drt::drcom {
namespace {

// Figure 2 of the paper, verbatim dialect (including the "frequence" and
// "runoncup" spellings).
constexpr const char* kCameraXml = R"(<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="camera" desc="this is a smart camera controller"
    type="periodic" enabled="true" cpuusage="0.1">
  <implementation bincode="ua.pats.demo.smartcamera.RTComponent"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <outport name="images" interface="RTAI.SHM" type="Byte" size="400"/>
  <inport name="xysize" interface="RTAI.SHM" type="Integer" size="400"/>
  <property name="prox00" type="Integer" value="6"/>
</drt:component>)";

TEST(Descriptor, ParsesFigure2Camera) {
  auto parsed = parse_descriptor(kCameraXml);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const ComponentDescriptor& d = parsed.value();
  EXPECT_EQ(d.name, "camera");
  EXPECT_EQ(d.description, "this is a smart camera controller");
  EXPECT_EQ(d.type, rtos::TaskType::kPeriodic);
  EXPECT_TRUE(d.enabled);
  EXPECT_DOUBLE_EQ(d.cpu_usage, 0.1);
  EXPECT_EQ(d.bincode, "ua.pats.demo.smartcamera.RTComponent");
  ASSERT_TRUE(d.periodic.has_value());
  EXPECT_DOUBLE_EQ(d.periodic->frequency_hz, 100.0);
  EXPECT_EQ(d.periodic->run_on_cpu, 0u);
  EXPECT_EQ(d.periodic->priority, 2);
  EXPECT_EQ(d.periodic->period(), milliseconds(10));  // paper: 10ms period
  ASSERT_EQ(d.ports.size(), 2u);
  EXPECT_EQ(d.outports().size(), 1u);
  EXPECT_EQ(d.inports().size(), 1u);
  const PortSpec* images = d.find_port("images");
  ASSERT_NE(images, nullptr);
  EXPECT_EQ(images->direction, PortDirection::kOut);
  EXPECT_EQ(images->interface, PortInterface::kShm);
  EXPECT_EQ(images->data_type, rtos::DataType::kByte);
  EXPECT_EQ(images->size, 400u);
  EXPECT_EQ(images->byte_size(), 400u);
  const PortSpec* xysize = d.find_port("xysize");
  ASSERT_NE(xysize, nullptr);
  EXPECT_EQ(xysize->data_type, rtos::DataType::kInteger);
  EXPECT_EQ(xysize->byte_size(), 1600u);  // 400 integers
  EXPECT_EQ(d.properties.get_int("prox00").value(), 6);
}

TEST(Descriptor, AcceptsModernSpellings) {
  auto parsed = parse_descriptor(R"(
    <drt:component name="tick" type="periodic" cpuusage="0.2">
      <implementation bincode="x.Y"/>
      <periodictask frequency="1000" runoncpu="1" priority="3"/>
    </drt:component>)");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().periodic->run_on_cpu, 1u);
  EXPECT_EQ(parsed.value().periodic->period(), milliseconds(1));
}

TEST(Descriptor, AperiodicNeedsNoPeriodicTask) {
  auto parsed = parse_descriptor(R"(
    <drt:component name="evt" type="aperiodic">
      <implementation bincode="x.Y"/>
      <inport name="cmds" interface="RTAI.Mailbox" type="Byte" size="16"/>
    </drt:component>)");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().type, rtos::TaskType::kAperiodic);
  EXPECT_FALSE(parsed.value().periodic.has_value());
  EXPECT_EQ(parsed.value().find_port("cmds")->interface,
            PortInterface::kMailbox);
}

TEST(Descriptor, DisabledComponent) {
  auto parsed = parse_descriptor(R"(
    <drt:component name="off" type="aperiodic" enabled="false">
      <implementation bincode="x.Y"/>
    </drt:component>)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().enabled);
}

TEST(Descriptor, TypedProperties) {
  auto parsed = parse_descriptor(R"(
    <drt:component name="p" type="aperiodic">
      <implementation bincode="x.Y"/>
      <property name="count" type="Integer" value="42"/>
      <property name="rate" type="Double" value="0.5"/>
      <property name="label" type="String" value="hello"/>
      <property name="flag" type="Boolean" value="true"/>
    </drt:component>)");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const auto& props = parsed.value().properties;
  EXPECT_EQ(props.get_int("count").value(), 42);
  EXPECT_DOUBLE_EQ(props.get_double("rate").value(), 0.5);
  EXPECT_EQ(props.get_string("label").value(), "hello");
  EXPECT_TRUE(props.get_bool("flag").value());
}

struct BadDescriptor {
  const char* name;
  const char* xml;
};

// ctest names a value-parameterized case by its printed value: print the
// case name, not the struct's (address-valued) bytes.
void PrintTo(const BadDescriptor& bad, std::ostream* out) { *out << bad.name; }

class DescriptorErrors : public ::testing::TestWithParam<BadDescriptor> {};

TEST_P(DescriptorErrors, Rejected) {
  auto parsed = parse_descriptor(GetParam().xml);
  ASSERT_FALSE(parsed.ok()) << GetParam().name;
  EXPECT_EQ(parsed.error().code, "drcom.bad_descriptor") << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DescriptorErrors,
    ::testing::Values(
        BadDescriptor{"no_name",
                      "<drt:component type=\"aperiodic\">"
                      "<implementation bincode=\"x\"/></drt:component>"},
        BadDescriptor{"name_too_long",
                      "<drt:component name=\"toolongname\" type=\"aperiodic\">"
                      "<implementation bincode=\"x\"/></drt:component>"},
        BadDescriptor{"no_bincode",
                      "<drt:component name=\"a\" type=\"aperiodic\"/>"},
        BadDescriptor{"bad_type",
                      "<drt:component name=\"a\" type=\"sporadic\">"
                      "<implementation bincode=\"x\"/></drt:component>"},
        BadDescriptor{"periodic_without_task",
                      "<drt:component name=\"a\" type=\"periodic\">"
                      "<implementation bincode=\"x\"/></drt:component>"},
        BadDescriptor{"zero_frequency",
                      "<drt:component name=\"a\" type=\"periodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<periodictask frequence=\"0\"/></drt:component>"},
        BadDescriptor{"cpuusage_over_one",
                      "<drt:component name=\"a\" type=\"aperiodic\" "
                      "cpuusage=\"1.5\">"
                      "<implementation bincode=\"x\"/></drt:component>"},
        BadDescriptor{"negative_cpuusage",
                      "<drt:component name=\"a\" type=\"aperiodic\" "
                      "cpuusage=\"-0.1\">"
                      "<implementation bincode=\"x\"/></drt:component>"},
        BadDescriptor{"bad_enabled",
                      "<drt:component name=\"a\" type=\"aperiodic\" "
                      "enabled=\"yes\">"
                      "<implementation bincode=\"x\"/></drt:component>"},
        BadDescriptor{"port_no_name",
                      "<drt:component name=\"a\" type=\"aperiodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<outport interface=\"RTAI.SHM\" type=\"Byte\" "
                      "size=\"4\"/></drt:component>"},
        BadDescriptor{"port_name_too_long",
                      "<drt:component name=\"a\" type=\"aperiodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<outport name=\"waytoolong\" interface=\"RTAI.SHM\" "
                      "type=\"Byte\" size=\"4\"/></drt:component>"},
        BadDescriptor{"port_bad_interface",
                      "<drt:component name=\"a\" type=\"aperiodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<outport name=\"p\" interface=\"CORBA\" type=\"Byte\" "
                      "size=\"4\"/></drt:component>"},
        BadDescriptor{"port_bad_type",
                      "<drt:component name=\"a\" type=\"aperiodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<outport name=\"p\" interface=\"RTAI.SHM\" "
                      "type=\"Float\" size=\"4\"/></drt:component>"},
        BadDescriptor{"port_zero_size",
                      "<drt:component name=\"a\" type=\"aperiodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<outport name=\"p\" interface=\"RTAI.SHM\" "
                      "type=\"Byte\" size=\"0\"/></drt:component>"},
        BadDescriptor{"duplicate_port",
                      "<drt:component name=\"a\" type=\"aperiodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<outport name=\"p\" interface=\"RTAI.SHM\" "
                      "type=\"Byte\" size=\"4\"/>"
                      "<inport name=\"p\" interface=\"RTAI.SHM\" "
                      "type=\"Byte\" size=\"4\"/></drt:component>"},
        BadDescriptor{"unknown_element",
                      "<drt:component name=\"a\" type=\"aperiodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<mystery/></drt:component>"},
        BadDescriptor{"bad_property_int",
                      "<drt:component name=\"a\" type=\"aperiodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<property name=\"p\" type=\"Integer\" value=\"x\"/>"
                      "</drt:component>"},
        BadDescriptor{"nan_cpuusage",
                      "<drt:component name=\"a\" type=\"aperiodic\" "
                      "cpuusage=\"nan\">"
                      "<implementation bincode=\"x\"/></drt:component>"},
        BadDescriptor{"nan_frequency",
                      "<drt:component name=\"a\" type=\"periodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<periodictask frequence=\"nan\"/></drt:component>"},
        BadDescriptor{"inf_frequency",
                      "<drt:component name=\"a\" type=\"periodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<periodictask frequence=\"inf\"/></drt:component>"},
        BadDescriptor{"priority_out_of_range",
                      "<drt:component name=\"a\" type=\"periodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<periodictask frequence=\"100\" priority=\"9000\"/>"
                      "</drt:component>"},
        BadDescriptor{"port_size_overflows_cap",
                      "<drt:component name=\"a\" type=\"aperiodic\">"
                      "<implementation bincode=\"x\"/>"
                      "<outport name=\"p\" interface=\"RTAI.SHM\" "
                      "type=\"Integer\" size=\"999999999\"/>"
                      "</drt:component>"}));

// The NaN/priority/size guards must hold for programmatic descriptors too —
// validate() is the choke point, not just the XML front-end.
TEST(Descriptor, ValidateRejectsNonFiniteAndOversized) {
  ComponentDescriptor d;
  d.name = "a";
  d.bincode = "x";
  d.type = rtos::TaskType::kPeriodic;
  d.periodic = PeriodicSpec{100.0, 0, 5};

  ComponentDescriptor nan_usage = d;
  nan_usage.cpu_usage = std::nan("");
  EXPECT_EQ(validate(nan_usage).error().code, "drcom.bad_descriptor");

  ComponentDescriptor nan_freq = d;
  nan_freq.periodic->frequency_hz = std::nan("");
  EXPECT_EQ(validate(nan_freq).error().code, "drcom.bad_descriptor");

  ComponentDescriptor hot = d;
  hot.periodic->priority = 1000;
  auto bad_priority = validate(hot);
  ASSERT_FALSE(bad_priority.ok());
  EXPECT_NE(bad_priority.error().message.find("priority"),
            std::string::npos);

  ComponentDescriptor wide = d;
  wide.ports.push_back({PortDirection::kOut, "p", PortInterface::kShm,
                        rtos::DataType::kInteger, kMaxPortBytes});
  auto bad_size = validate(wide);
  ASSERT_FALSE(bad_size.ok());
  EXPECT_NE(bad_size.error().message.find("byte limit"), std::string::npos);

  EXPECT_TRUE(validate(d).ok());
}

TEST(Descriptor, WrongRootRejected) {
  auto parsed = parse_descriptor("<service name=\"a\"/>");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "xml.unexpected_root");
}

TEST(Descriptor, PortCompatibilityRequiresAllFour) {
  PortSpec out{PortDirection::kOut, "data", PortInterface::kShm,
               rtos::DataType::kByte, 100};
  PortSpec in = out;
  in.direction = PortDirection::kIn;
  EXPECT_TRUE(out.compatible_with(in));
  PortSpec wrong_name = in;
  wrong_name.name = "other";
  EXPECT_FALSE(out.compatible_with(wrong_name));
  PortSpec wrong_iface = in;
  wrong_iface.interface = PortInterface::kMailbox;
  EXPECT_FALSE(out.compatible_with(wrong_iface));
  PortSpec wrong_type = in;
  wrong_type.data_type = rtos::DataType::kInteger;
  EXPECT_FALSE(out.compatible_with(wrong_type));
  PortSpec wrong_size = in;
  wrong_size.size = 99;
  EXPECT_FALSE(out.compatible_with(wrong_size));
}

TEST(Descriptor, WriteRoundTrips) {
  auto parsed = parse_descriptor(kCameraXml);
  ASSERT_TRUE(parsed.ok());
  const std::string serialized = write_descriptor(parsed.value());
  auto reparsed = parse_descriptor(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string() << "\n"
                             << serialized;
  const auto& a = parsed.value();
  const auto& b = reparsed.value();
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.bincode, b.bincode);
  EXPECT_EQ(a.ports.size(), b.ports.size());
  EXPECT_DOUBLE_EQ(a.periodic->frequency_hz, b.periodic->frequency_hz);
  EXPECT_EQ(a.properties.get_int("prox00"), b.properties.get_int("prox00"));
}

TEST(Descriptor, TargetCpuDefaults) {
  ComponentDescriptor d;
  d.name = "x";
  d.bincode = "y";
  d.type = rtos::TaskType::kAperiodic;
  EXPECT_EQ(d.target_cpu(), 0u);
  d.periodic = PeriodicSpec{100.0, 1, 5};
  EXPECT_EQ(d.target_cpu(), 1u);
}

}  // namespace
}  // namespace drt::drcom
