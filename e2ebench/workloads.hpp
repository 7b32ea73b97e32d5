// Seeded input generation for the three workloads.
//
// Everything the stack receives is produced here, from the seed alone, as
// plain data: descriptor XML texts grouped into bundle definitions, system
// compositions, and the operation script of the closed reconfiguration
// loop. The benchmark never hands the stack anything else, so two runs with
// one seed see byte-identical inputs (fingerprint() pins that).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

enum class Workload { kSteady256, kChurn512, kFed16 };

[[nodiscard]] const char* to_string(Workload workload);
/// Parses a workload name; false when unknown.
[[nodiscard]] bool parse_workload(const std::string& text, Workload* out);

/// One bundle: symbolic name plus descriptor resources (path -> XML).
struct BundleSpec {
  std::string symbolic_name;
  std::vector<std::pair<std::string, std::string>> descriptors;
};

enum class OpKind {
  kRegister,            ///< register a standalone descriptor (xml)
  kRegisterInfeasible,  ///< register a contract no resolver can admit
  kUnregister,
  kDisable,
  kEnable,
  kBundleInstall,    ///< install + start bundle `index` of the pool
  kBundleUninstall,  ///< stop + uninstall bundle `index`
  kDeploySystem,     ///< parse `xml` as a <drt:system> and deploy it
  kUndeploySystem,
  kModeTransition,   ///< transition to mode `target` ("" = base mode)
  kConnect,          ///< registry lookup of `target`, connect, one call
};

struct Op {
  OpKind kind = OpKind::kRegister;
  std::string target;  ///< component / system / mode / provider name
  std::string xml;     ///< descriptor or system document, when any
  std::size_t index = 0;  ///< bundle pool index
};

/// steady_256: 16 bundles x 16 components on 2 CPUs.
struct SteadyInputs {
  std::vector<BundleSpec> bundles;
};

/// churn_512: 32 installed bundles x 16 mode-declaring components, a pool
/// of 8 more bundles for install operations, and the operation script.
struct ChurnInputs {
  std::vector<BundleSpec> bundles;  ///< [0, kChurnInitialBundles) at set-up
  std::vector<Op> script;
};

/// One federation operation: a migration, or (every 20th operation) a
/// leave/join of `node` with re-placement of up to kFedReplaced of its
/// components.
struct FedOp {
  bool leave_join = false;
  std::size_t victim = 0;  ///< index into FedInputs::placed (migrations)
  std::size_t node = 0;    ///< target hint (migrations) / node that leaves
};

/// fed_16: 16 nodes; 512 components placed by the coordinator, and per node
/// two remote typed-call pairs pinned to fixed nodes.
struct FedInputs {
  std::vector<std::string> placed;  ///< descriptor XML
  /// Per pair: client node, client XML, server node, server XML.
  struct Pair {
    std::size_t client_node = 0;
    std::string client;
    std::string client_xml;
    std::size_t server_node = 0;
    std::string server;
    std::string server_xml;
  };
  std::vector<Pair> pairs;
  std::vector<FedOp> script;
};

inline constexpr std::size_t kSteadyBundles = 16;
inline constexpr std::size_t kSteadyPerBundle = 16;
inline constexpr std::size_t kSteadyPairs = 32;

inline constexpr std::size_t kChurnInitialBundles = 32;
inline constexpr std::size_t kChurnPoolBundles = 40;
inline constexpr std::size_t kChurnPerBundle = 16;
inline constexpr std::size_t kChurnOps = 1200;

inline constexpr std::size_t kFedNodes = 16;
inline constexpr std::size_t kFedPerNode = 32;
inline constexpr std::size_t kFedPairsPerNode = 2;
inline constexpr std::size_t kFedReplaced = 4;

[[nodiscard]] SteadyInputs make_steady(std::uint64_t seed);
[[nodiscard]] ChurnInputs make_churn(std::uint64_t seed);
/// `ops` federation operations.
[[nodiscard]] FedInputs make_fed(std::uint64_t seed, std::size_t ops);

/// Stable hash of every generated byte (inputs identity across runs).
[[nodiscard]] std::uint64_t fingerprint(const SteadyInputs& inputs);
[[nodiscard]] std::uint64_t fingerprint(const ChurnInputs& inputs);
[[nodiscard]] std::uint64_t fingerprint(const FedInputs& inputs);

/// FNV-1a, the hash behind fingerprints and vt_digest.
class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= p[i];
      state_ *= 0x100000001b3ULL;
    }
  }
  void text(const std::string& s) {
    bytes(s.data(), s.size());
    bytes("\0", 1);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace e2e
