// System-composition descriptor (ADL extension): parsing, architectural
// validation, atomic deployment through the DRCR.
#include <gtest/gtest.h>

#include "drcom/drcr.hpp"
#include "drcom/system_descriptor.hpp"
#include "test_helpers.hpp"

namespace drt::drcom {
namespace {

using rtos::testing::quiet_config;

constexpr const char* kVisionSystem = R"(<?xml version="1.0"?>
<drt:system name="vision" desc="inspection pipeline">
  <drt:component name="camera" type="periodic" cpuusage="0.1">
    <implementation bincode="sys.Cam"/>
    <periodictask frequence="100" runoncpu="0" priority="2"/>
    <outport name="images" interface="RTAI.SHM" type="Byte" size="400"/>
  </drt:component>
  <drt:component name="roi" type="periodic" cpuusage="0.2">
    <implementation bincode="sys.Roi"/>
    <periodictask frequence="100" runoncpu="0" priority="3"/>
    <inport name="images" interface="RTAI.SHM" type="Byte" size="400"/>
    <outport name="coords" interface="RTAI.SHM" type="Integer" size="4"/>
  </drt:component>
  <connection from="camera.images" to="roi.images"/>
  <cpubudget cpu="0" limit="0.8"/>
</drt:system>)";

TEST(SystemDescriptor, ParsesCompleteSystem) {
  auto parsed = parse_system_descriptor(kVisionSystem);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const SystemDescriptor& system = parsed.value();
  EXPECT_EQ(system.name, "vision");
  EXPECT_EQ(system.description, "inspection pipeline");
  ASSERT_EQ(system.components.size(), 2u);
  EXPECT_NE(system.find_component("camera"), nullptr);
  EXPECT_NE(system.find_component("roi"), nullptr);
  EXPECT_EQ(system.find_component("nope"), nullptr);
  ASSERT_EQ(system.connections.size(), 1u);
  EXPECT_EQ(system.connections[0].from_component, "camera");
  EXPECT_EQ(system.connections[0].to_port, "images");
  ASSERT_EQ(system.budgets.size(), 1u);
  EXPECT_DOUBLE_EQ(system.budgets[0].limit, 0.8);
}

TEST(SystemDescriptor, RoundTripsThroughWriter) {
  auto parsed = parse_system_descriptor(kVisionSystem);
  ASSERT_TRUE(parsed.ok());
  const std::string serialized = write_system_descriptor(parsed.value());
  auto reparsed = parse_system_descriptor(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string() << "\n"
                             << serialized;
  EXPECT_EQ(reparsed.value().components.size(), 2u);
  EXPECT_EQ(reparsed.value().connections.size(), 1u);
  EXPECT_EQ(reparsed.value().budgets.size(), 1u);
}

struct BadSystem {
  const char* name;
  const char* xml;
};

// ctest names a value-parameterized case by its printed value: print the
// case name, not the struct's (address-valued) bytes.
void PrintTo(const BadSystem& bad, std::ostream* out) { *out << bad.name; }

class SystemDescriptorErrors : public ::testing::TestWithParam<BadSystem> {};

TEST_P(SystemDescriptorErrors, Rejected) {
  auto parsed = parse_system_descriptor(GetParam().xml);
  ASSERT_FALSE(parsed.ok()) << GetParam().name;
  EXPECT_EQ(parsed.error().code, "drcom.bad_system") << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SystemDescriptorErrors,
    ::testing::Values(
        BadSystem{"no_name", R"(<drt:system>
          <drt:component name="a" type="aperiodic">
            <implementation bincode="x"/></drt:component>
          </drt:system>)"},
        BadSystem{"duplicate_member", R"(<drt:system name="s">
          <drt:component name="a" type="aperiodic">
            <implementation bincode="x"/></drt:component>
          <drt:component name="a" type="aperiodic">
            <implementation bincode="x"/></drt:component>
          </drt:system>)"},
        BadSystem{"unknown_element", R"(<drt:system name="s">
          <wires/></drt:system>)"},
        BadSystem{"bad_endpoint", R"(<drt:system name="s">
          <drt:component name="a" type="aperiodic">
            <implementation bincode="x"/>
            <outport name="p" interface="RTAI.SHM" type="Byte" size="4"/>
          </drt:component>
          <connection from="a" to="a.p"/></drt:system>)"},
        BadSystem{"unknown_component_in_connection", R"(<drt:system name="s">
          <drt:component name="a" type="aperiodic">
            <implementation bincode="x"/>
            <outport name="p" interface="RTAI.SHM" type="Byte" size="4"/>
          </drt:component>
          <connection from="a.p" to="ghost.p"/></drt:system>)"},
        BadSystem{"wrong_direction", R"(<drt:system name="s">
          <drt:component name="a" type="aperiodic">
            <implementation bincode="x"/>
            <outport name="p" interface="RTAI.SHM" type="Byte" size="4"/>
          </drt:component>
          <drt:component name="b" type="aperiodic">
            <implementation bincode="x"/>
            <inport name="p" interface="RTAI.SHM" type="Byte" size="4"/>
          </drt:component>
          <connection from="b.p" to="a.p"/></drt:system>)"},
        BadSystem{"cross_name_connection", R"(<drt:system name="s">
          <drt:component name="a" type="aperiodic">
            <implementation bincode="x"/>
            <outport name="p" interface="RTAI.SHM" type="Byte" size="4"/>
          </drt:component>
          <drt:component name="b" type="aperiodic">
            <implementation bincode="x"/>
            <inport name="q" interface="RTAI.SHM" type="Byte" size="4"/>
          </drt:component>
          <connection from="a.p" to="b.q"/></drt:system>)"},
        BadSystem{"duplicate_provider", R"(<drt:system name="s">
          <drt:component name="a" type="aperiodic">
            <implementation bincode="x"/>
            <outport name="p" interface="RTAI.SHM" type="Byte" size="4"/>
          </drt:component>
          <drt:component name="b" type="aperiodic">
            <implementation bincode="x"/>
            <outport name="p" interface="RTAI.SHM" type="Byte" size="4"/>
          </drt:component></drt:system>)"},
        BadSystem{"undeclared_internal_wiring", R"(<drt:system name="s">
          <drt:component name="a" type="aperiodic">
            <implementation bincode="x"/>
            <outport name="p" interface="RTAI.SHM" type="Byte" size="4"/>
          </drt:component>
          <drt:component name="b" type="aperiodic">
            <implementation bincode="x"/>
            <inport name="p" interface="RTAI.SHM" type="Byte" size="4"/>
          </drt:component></drt:system>)"},
        BadSystem{"budget_exceeded", R"(<drt:system name="s">
          <drt:component name="a" type="periodic" cpuusage="0.6">
            <implementation bincode="x"/>
            <periodictask frequence="100" runoncpu="0" priority="3"/>
          </drt:component>
          <cpubudget cpu="0" limit="0.5"/></drt:system>)"},
        BadSystem{"bad_budget", R"(<drt:system name="s">
          <cpubudget cpu="0" limit="1.5"/></drt:system>)"}));

TEST(SystemDescriptor, IncompatiblePortsInConnectionRejected) {
  auto parsed = parse_system_descriptor(R"(<drt:system name="s">
    <drt:component name="a" type="aperiodic">
      <implementation bincode="x"/>
      <outport name="p" interface="RTAI.SHM" type="Byte" size="4"/>
    </drt:component>
    <drt:component name="b" type="aperiodic">
      <implementation bincode="x"/>
      <inport name="p" interface="RTAI.SHM" type="Byte" size="8"/>
    </drt:component>
    <connection from="a.p" to="b.p"/></drt:system>)");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("incompatible"), std::string::npos);
}

// --------------------------------------------------------- DRCR deployment

class Echo : public RtComponent {
 public:
  rtos::TaskCoro run(JobContext& job) override {
    while (job.active()) {
      co_await job.consume(microseconds(10));
      co_await job.next_cycle();
    }
  }
};

struct SystemDeployFixture : public ::testing::Test {
  SystemDeployFixture()
      : kernel(engine, quiet_config()), drcr(framework, kernel) {
    for (const char* bincode : {"sys.Cam", "sys.Roi"}) {
      drcr.factories().register_factory(
          bincode, [] { return std::make_unique<Echo>(); });
    }
  }

  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel;
  Drcr drcr;
};

TEST_F(SystemDeployFixture, DeploysWholeSystemAtomically) {
  auto system = parse_system_descriptor(kVisionSystem);
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE(drcr.deploy_system(system.value()).ok());
  EXPECT_EQ(drcr.state_of("camera").value(), ComponentState::kActive);
  EXPECT_EQ(drcr.state_of("roi").value(), ComponentState::kActive);
  ASSERT_EQ(drcr.deployed_systems().size(), 1u);
  EXPECT_EQ(drcr.system_members("vision").size(), 2u);
  // Duplicate deployment rejected.
  EXPECT_FALSE(drcr.deploy_system(system.value()).ok());
}

TEST_F(SystemDeployFixture, UndeployRemovesAllMembers) {
  auto system = parse_system_descriptor(kVisionSystem);
  ASSERT_TRUE(drcr.deploy_system(system.value()).ok());
  ASSERT_TRUE(drcr.undeploy_system("vision").ok());
  EXPECT_FALSE(drcr.state_of("camera").has_value());
  EXPECT_FALSE(drcr.state_of("roi").has_value());
  EXPECT_TRUE(drcr.deployed_systems().empty());
  EXPECT_FALSE(drcr.undeploy_system("vision").ok());
  // Redeployment works after undeploy.
  EXPECT_TRUE(drcr.deploy_system(system.value()).ok());
}

TEST_F(SystemDeployFixture, NameClashWithExistingComponentAborts) {
  ComponentDescriptor squatter;
  squatter.name = "roi";
  squatter.bincode = "sys.Cam";
  squatter.type = rtos::TaskType::kAperiodic;
  ASSERT_TRUE(drcr.register_component(std::move(squatter)).ok());
  auto system = parse_system_descriptor(kVisionSystem);
  auto deployed = drcr.deploy_system(system.value());
  ASSERT_FALSE(deployed.ok());
  EXPECT_EQ(deployed.error().code, "drcom.duplicate_component");
  // Nothing from the system leaked in.
  EXPECT_FALSE(drcr.state_of("camera").has_value());
  EXPECT_TRUE(drcr.deployed_systems().empty());
}

TEST_F(SystemDeployFixture, SystemWithInternalCycleDeploysAsGroup) {
  const char* cyclic = R"(<drt:system name="loop">
    <drt:component name="a" type="periodic" cpuusage="0.1">
      <implementation bincode="sys.Cam"/>
      <periodictask frequence="100" runoncpu="0" priority="3"/>
      <outport name="ab" interface="RTAI.SHM" type="Integer" size="2"/>
      <inport name="ba" interface="RTAI.SHM" type="Integer" size="2"/>
    </drt:component>
    <drt:component name="b" type="periodic" cpuusage="0.1">
      <implementation bincode="sys.Roi"/>
      <periodictask frequence="100" runoncpu="0" priority="3"/>
      <outport name="ba" interface="RTAI.SHM" type="Integer" size="2"/>
      <inport name="ab" interface="RTAI.SHM" type="Integer" size="2"/>
    </drt:component>
    <connection from="a.ab" to="b.ab"/>
    <connection from="b.ba" to="a.ba"/>
  </drt:system>)";
  auto system = parse_system_descriptor(cyclic);
  ASSERT_TRUE(system.ok()) << system.error().to_string();
  ASSERT_TRUE(drcr.deploy_system(system.value()).ok());
  EXPECT_EQ(drcr.active_count(), 2u);
}

}  // namespace
}  // namespace drt::drcom
