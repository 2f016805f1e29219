#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "api/mclient.h"
#include "api/mservice.h"
#include "net/builders.h"
#include "service/consumer.h"

namespace tamp::api {
namespace {

constexpr char kPaperConfig[] = R"(
*SYSTEM
SHM_KEY = 999
MAX_TTL = 4
MCAST_ADDR = 239.255.0.2
MCAST_PORT = 10050
MCAST_FREQ = 1
MAX_LOSS = 5

*SERVICE
[HTTP]
    PARTITION = 0
    Port = 8080
[Cache]
    PARTITION = 2
)";

TEST(Config, ParsesPaperExample) {
  std::string error;
  auto config = parse_config(kPaperConfig, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->system.shm_key, 999);
  EXPECT_EQ(config->system.max_ttl, 4);
  EXPECT_EQ(config->system.mcast_addr, "239.255.0.2");
  EXPECT_EQ(config->system.mcast_port, 10050);
  EXPECT_DOUBLE_EQ(config->system.mcast_freq, 1.0);
  EXPECT_EQ(config->system.max_loss, 5);
  ASSERT_EQ(config->services.size(), 2u);
  EXPECT_EQ(config->services[0].name, "HTTP");
  EXPECT_EQ(config->services[0].partition_spec, "0");
  EXPECT_EQ(config->services[0].params.at("Port"), "8080");
  EXPECT_EQ(config->services[1].name, "Cache");
  EXPECT_EQ(config->services[1].partition_spec, "2");
}

TEST(Config, EmptyTextYieldsDefaults) {
  auto config = parse_config("");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->system.shm_key, 999);
  EXPECT_TRUE(config->services.empty());
}

TEST(Config, CommentsAndBlankLinesIgnored) {
  auto config = parse_config("# hello\n\n*SYSTEM\n; note\nMAX_TTL = 2\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->system.max_ttl, 2);
}

TEST(Config, RejectsUnknownSection) {
  std::string error;
  EXPECT_FALSE(parse_config("*BOGUS\nA = 1\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(Config, RejectsUnknownSystemKey) {
  std::string error;
  EXPECT_FALSE(parse_config("*SYSTEM\nWAT = 1\n", &error).has_value());
}

TEST(Config, RejectsNonNumericValue) {
  std::string error;
  EXPECT_FALSE(parse_config("*SYSTEM\nMAX_TTL = lots\n", &error).has_value());
}

TEST(Config, RejectsKeyOutsideSection) {
  std::string error;
  EXPECT_FALSE(parse_config("MAX_TTL = 4\n", &error).has_value());
}

TEST(Config, RejectsServiceKeyBeforeHeader) {
  std::string error;
  EXPECT_FALSE(
      parse_config("*SERVICE\nPARTITION = 1\n", &error).has_value());
}

TEST(Config, McastAddrMapsToStableChannel) {
  EXPECT_EQ(channel_for_mcast_addr("239.255.0.2"),
            channel_for_mcast_addr("239.255.0.2"));
  EXPECT_NE(channel_for_mcast_addr("239.255.0.2"),
            channel_for_mcast_addr("239.255.0.3"));
}

struct ApiFixture : public ::testing::Test {
  sim::Simulation sim{51};
  net::Topology topo;
  net::ClusterLayout layout;
  std::unique_ptr<net::Network> net;
  DirectoryStore store;
  std::vector<std::unique_ptr<MService>> services;

  void build(int racks, int hosts_per_rack) {
    net::RackedClusterParams params;
    params.racks = racks;
    params.hosts_per_rack = hosts_per_rack;
    layout = net::build_racked_cluster(topo, params);
    net = std::make_unique<net::Network>(sim, topo);
    for (net::HostId host : layout.hosts) {
      services.push_back(
          std::make_unique<MService>(sim, *net, store, host, kPaperConfig));
      EXPECT_TRUE(services.back()->config_error().empty());
      EXPECT_EQ(services.back()->run(), 0);
    }
  }
};

TEST_F(ApiFixture, FullStackConvergesAndClientSeesServices) {
  build(2, 4);
  sim.run_until(15 * sim::kSecond);

  MClient client(store, layout.hosts[0], 999);
  ASSERT_TRUE(client.attached());

  MachineList machines;
  // Every node registered HTTP partition 0 from the shared config file.
  int count = client.lookup_service("HTTP", "0", &machines);
  EXPECT_EQ(count, 8);
  ASSERT_EQ(machines.size(), 8u);

  // Attributes include the service parameters from the config file.
  bool port_found = false;
  for (const auto& [key, value] : machines[0]) {
    if (key == "service.HTTP.Port" && value == "8080") port_found = true;
  }
  EXPECT_TRUE(port_found);

  // Regex + partition spec work through the client API too.
  EXPECT_EQ(client.lookup_service("(HTTP|Cache)", "2", nullptr), 8);
  EXPECT_EQ(client.lookup_service("Cache", "0-1", nullptr), 0);
}

TEST_F(ApiFixture, UpdateValuePropagates) {
  build(2, 3);
  sim.run_until(15 * sim::kSecond);
  services[0]->update_value("load", "0.42");
  sim.run_until(sim.now() + 5 * sim::kSecond);

  MClient client(store, layout.hosts[5], 999);
  MachineList machines;
  client.lookup_service("HTTP", "*", &machines);
  bool seen = false;
  for (const auto& machine : machines) {
    for (const auto& [key, value] : machine) {
      if (key == "load" && value == "0.42") seen = true;
    }
  }
  EXPECT_TRUE(seen);

  services[0]->delete_value("load");
  sim.run_until(sim.now() + 5 * sim::kSecond);
  machines.clear();
  client.lookup_service("HTTP", "*", &machines);
  for (const auto& machine : machines) {
    for (const auto& [key, value] : machine) {
      EXPECT_FALSE(key == "load" && value == "0.42");
    }
  }
}

TEST_F(ApiFixture, RegisterServiceAtRuntime) {
  build(1, 4);
  sim.run_until(10 * sim::kSecond);
  services[2]->register_service("Retriever", "1-3");
  sim.run_until(sim.now() + 5 * sim::kSecond);

  MClient client(store, layout.hosts[0], 999);
  MachineList machines;
  EXPECT_EQ(client.lookup_service("Retriever", "2", &machines), 1);
}

TEST_F(ApiFixture, RegisterServiceRejectsMalformedPartitionSpec) {
  build(1, 3);
  sim.run_until(8 * sim::kSecond);
  EXPECT_EQ(services[1]->register_service("Bad", "4-2"), -1);
  EXPECT_EQ(services[1]->register_service("Bad", "x"), -1);
  sim.run_until(sim.now() + 5 * sim::kSecond);

  // Nothing was registered: neither the wildcard nor the default
  // partition finds the service.
  MClient client(store, layout.hosts[0], 999);
  EXPECT_EQ(client.lookup_service("Bad", "*", nullptr), 0);
  EXPECT_EQ(client.lookup_service("Bad", "0", nullptr), 0);
  for (const auto& registration : services[1]->daemon().own_entry().services) {
    EXPECT_NE(registration.name, "Bad");
  }
}

TEST_F(ApiFixture, ShutdownWithdrawsSegment) {
  build(1, 3);
  sim.run_until(8 * sim::kSecond);
  MClient client(store, layout.hosts[0], 999);
  EXPECT_TRUE(client.attached());
  services[0]->shutdown();
  EXPECT_FALSE(client.attached());
  EXPECT_EQ(client.lookup_service("HTTP", "*", nullptr), -1);
}

TEST_F(ApiFixture, ControlAdjustsDaemonParameters) {
  net::ClusterLayout small = net::build_single_segment(topo, 2);
  net = std::make_unique<net::Network>(sim, topo);
  MService service(sim, *net, store, small.hosts[0], kPaperConfig);
  EXPECT_TRUE(service.control(SetFrequencyRequest{2.0}).status.ok());
  EXPECT_TRUE(service.control(SetMaxLossRequest{3}).status.ok());
  ControlResponse ttl_response = service.control(SetMaxTtlRequest{2});
  EXPECT_TRUE(ttl_response.status.ok());
  ASSERT_EQ(service.run(), 0);
  EXPECT_EQ(service.daemon().config().period, sim::kSecond / 2);
  EXPECT_EQ(service.daemon().config().max_losses, 3);
  EXPECT_EQ(service.daemon().config().max_ttl, 2);
  EXPECT_EQ(service.run(), -1);  // double run rejected
}

TEST_F(ApiFixture, ControlRejectsBadValuesAndLateChanges) {
  net::ClusterLayout small = net::build_single_segment(topo, 2);
  net = std::make_unique<net::Network>(sim, topo);
  MService service(sim, *net, store, small.hosts[0], kPaperConfig);

  // Invalid values come back as Status errors instead of asserting, and
  // leave the configuration untouched.
  EXPECT_FALSE(service.control(SetFrequencyRequest{-1.0}).status.ok());
  EXPECT_FALSE(service.control(SetMaxTtlRequest{0}).status.ok());
  EXPECT_FALSE(service.control(SetMaxLossRequest{0}).status.ok());
  EXPECT_DOUBLE_EQ(service.config().system.mcast_freq, 1.0);
  EXPECT_EQ(service.config().system.max_ttl, 4);

  // Queries before run() are rejected too.
  EXPECT_FALSE(service.control(LeadershipQuery{}).status.ok());

  ASSERT_EQ(service.run(), 0);
  // Parameter changes after run() are rejected, not applied.
  EXPECT_FALSE(service.control(SetFrequencyRequest{2.0}).status.ok());
  EXPECT_EQ(service.daemon().config().period, sim::kSecond);
}

TEST_F(ApiFixture, LeadershipQueryReportsEpochsAndIncarnation) {
  build(1, 4);
  sim.run_until(15 * sim::kSecond);

  bool leader_seen = false;
  for (auto& service : services) {
    ControlResponse response = service->control(LeadershipQuery{});
    ASSERT_TRUE(response.status.ok()) << response.status.message();
    EXPECT_GE(response.incarnation, 1u);
    ASSERT_EQ(response.leadership.size(), 4u);
    const LeadershipInfo& level0 = response.leadership[0];
    EXPECT_EQ(level0.level, 0);
    EXPECT_TRUE(level0.joined);
    EXPECT_NE(level0.leader, membership::kInvalidNode);
    if (level0.is_leader) {
      leader_seen = true;
      // A node that led an election minted at least epoch 1.
      EXPECT_GE(level0.epoch, 1u);
    }
  }
  EXPECT_TRUE(leader_seen);
}

// Applies each edit to a default Config and expects validate() to reject
// the result.
template <typename Config>
void expect_each_rejected(
    const std::vector<std::function<void(Config&)>>& edits) {
  for (size_t i = 0; i < edits.size(); ++i) {
    Config config;
    edits[i](config);
    EXPECT_FALSE(validate(config).ok()) << "edit #" << i;
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ConfigValidate, AcceptsAssembledConfig) {
  MembershipConfig config;
  config.system.mcast_addr = "239.255.0.7";
  config.system.mcast_freq = 2.0;
  config.system.max_ttl = 3;
  config.system.max_loss = 4;
  config.services.push_back({"HTTP", "0", {{"Port", "8080"}}});
  Status status = validate(config);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_TRUE(validate(MembershipConfig{}).ok());
}

TEST(ConfigValidate, RejectsOutOfRangeValues) {
  using C = MembershipConfig;
  expect_each_rejected<C>({
      [](C& c) { c.system.max_ttl = 0; },
      [](C& c) { c.system.max_ttl = 251; },
      [](C& c) { c.system.mcast_freq = 0; },
      [](C& c) { c.system.mcast_freq = kNaN; },
      [](C& c) { c.system.mcast_freq = kInf; },
      [](C& c) { c.system.mcast_freq = 2e9; },
      [](C& c) { c.system.max_loss = 0; },
      [](C& c) { c.system.mcast_port = 65535; },
      [](C& c) { c.system.mcast_port = 0; },
      [](C& c) { c.system.mcast_addr = ""; },
      [](C& c) { c.services.push_back({"S", "4-2", {}}); },
      [](C& c) { c.services.push_back({"", "0", {}}); },
  });
}

TEST(ConfigValidate, AntiEntropyKnobsValidateAndFlowThrough) {
  MembershipConfig config;
  config.system.digest_max_rows_per_delta = 128;
  Status status = validate(config);
  ASSERT_TRUE(status.ok()) << status.message();

  using C = MembershipConfig;
  expect_each_rejected<C>({
      [](C& c) { c.system.digest_max_rows_per_delta = 0; },
      [](C& c) { c.system.digest_max_rows_per_delta = 65537; },
  });
}

TEST(ConfigValidate, AntiEntropyKeysParseFromFigureSevenText) {
  auto config = parse_config(
      "*SYSTEM\n"
      "DIGEST_MAX_ROWS_PER_DELTA = 32\n");
  ASSERT_TRUE(config.has_value());
  Status status = validate(*config);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(config->system.digest_max_rows_per_delta, 32);

  // A key the *SYSTEM section does not define is rejected by name.
  std::string error;
  EXPECT_FALSE(
      parse_config("*SYSTEM\nREFRESH_MODE = digest\n", &error).has_value());
  EXPECT_NE(error.find("unknown *SYSTEM key REFRESH_MODE"), std::string::npos)
      << error;
  // Malformed numbers fail in the parser already.
  EXPECT_FALSE(
      parse_config("*SYSTEM\nDIGEST_MAX_ROWS_PER_DELTA = 1.5\n").has_value());
  // An integer outside int range is malformed, not wrapped.
  EXPECT_FALSE(parse_config("*SYSTEM\nMAX_TTL = 4294967300\n").has_value());
}

TEST(ConfigValidate, SeedsFromFigureSevenText) {
  std::string error;
  auto config = parse_config(kPaperConfig, &error);
  ASSERT_TRUE(config.has_value()) << error;
  config->system.mcast_freq = 4.0;  // override on top of the file
  Status status = validate(*config);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(config->system.shm_key, 999);
  ASSERT_EQ(config->services.size(), 2u);

  // A parse failure reports its line.
  EXPECT_FALSE(parse_config("*SYSTEM\nMAX_TTL = oops\n", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(ConfigValidate, ValidatedConfigConstructsServiceDirectly) {
  sim::Simulation sim(7);
  net::Topology topo;
  auto layout = net::build_single_segment(topo, 2);
  net::Network net(sim, topo);
  DirectoryStore store;

  auto config = parse_config(kPaperConfig);
  ASSERT_TRUE(config.has_value());
  config->system.shm_key = 1234;
  MService service(sim, net, store, layout.hosts[0], std::move(*config));
  EXPECT_TRUE(service.config_error().empty());
  EXPECT_EQ(service.shm_key(), 1234);
  EXPECT_EQ(service.run(), 0);
  MClient client(store, layout.hosts[0], 1234);
  EXPECT_TRUE(client.attached());
}

// --- ConsumerConfig validation ----------------------------------------------

TEST(ConsumerConfigValidate, AcceptsAssembledConfig) {
  service::ConsumerConfig config;
  config.poll_candidates = 3;
  config.poll_timeout = 50 * sim::kMillisecond;
  config.request_timeout = sim::kSecond;
  config.max_attempts = 5;
  config.proxy_fallback = false;
  Status status = service::validate(config);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_TRUE(service::validate(service::ConsumerConfig{}).ok());
}

TEST(ConsumerConfigValidate, RejectsOutOfRangeValues) {
  using C = service::ConsumerConfig;
  expect_each_rejected<C>({
      [](C& c) { c.poll_candidates = 0; },
      [](C& c) { c.poll_candidates = 17; },
      [](C& c) { c.max_attempts = 0; },
      [](C& c) { c.poll_timeout = 0; },
      [](C& c) { c.request_timeout = -1; },
      [](C& c) { c.relay_timeout = 0; },
      // Port collisions would make the consumer answer itself.
      [](C& c) { c.reply_port = protocols::kServicePort; },
      [](C& c) { c.reply_port = service::kProxyRelayPort; },
  });
}

// Every rejected configuration, from text or from a struct, leaves the
// defaults in place, reports why, and still runs a daemon.
TEST(ApiStandalone, MalformedConfigFallsBackToDefaults) {
  auto expect_defaults_and_run = [](MService& service, const char* what) {
    SCOPED_TRACE(what);
    EXPECT_FALSE(service.config_error().empty());
    const SystemConfig defaults;
    EXPECT_EQ(service.config().system.max_ttl, defaults.max_ttl);
    EXPECT_EQ(service.config().system.mcast_port, defaults.mcast_port);
    EXPECT_EQ(service.config().system.max_loss, defaults.max_loss);
    EXPECT_EQ(service.config().system.digest_max_rows_per_delta,
              defaults.digest_max_rows_per_delta);
    EXPECT_TRUE(service.config().services.empty());
    EXPECT_EQ(service.run(), 0);
    EXPECT_EQ(service.daemon().config().max_ttl, defaults.max_ttl);
    EXPECT_EQ(service.daemon().config().control_port, defaults.mcast_port + 1);
  };

  const char* bad_files[] = {
      "*SYSTEM\nMAX_TTL=oops",
      "*SYSTEM\nMAX_TTL = 0\n",
      "*SYSTEM\nMCAST_PORT = 65535\n",
      "*SYSTEM\nMAX_LOSS = 0\n",
      "*SYSTEM\nDIGEST_MAX_ROWS_PER_DELTA = 0\n",
      "*SERVICE\n[HTTP]\nPARTITION = 4-2\n",
  };
  for (const char* text : bad_files) {
    sim::Simulation sim(1);
    net::Topology topo;
    auto layout = net::build_single_segment(topo, 2);
    net::Network net(sim, topo);
    DirectoryStore store;
    MService service(sim, net, store, layout.hosts[0], text);
    expect_defaults_and_run(service, text);
    sim.run_until(3 * sim::kSecond);
  }

  sim::Simulation sim(1);
  net::Topology topo;
  auto layout = net::build_single_segment(topo, 2);
  net::Network net(sim, topo);
  DirectoryStore store;
  MembershipConfig invalid;
  invalid.system.max_ttl = 0;
  invalid.services.push_back({"HTTP", "0", {}});
  MService service(sim, net, store, layout.hosts[0], invalid);
  expect_defaults_and_run(service, "MembershipConfig with MAX_TTL 0");
  sim.run_until(3 * sim::kSecond);
}

}  // namespace
}  // namespace tamp::api
