// Ready-wired deployments of each baseline system, so benchmarks and tests
// instantiate "a BackupNode cluster" the same way they instantiate a CFS
// cluster. Each assembly exposes clients, the failure-injection entry
// point (KillPrimary), and the promoted server for state inspection.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/backup_node.hpp"
#include "baselines/boomfs.hpp"
#include "baselines/client.hpp"
#include "baselines/shared_edits.hpp"
#include "cluster/data_server.hpp"
#include "storage/pool_node.hpp"

namespace mams::baselines {

/// Data servers of every assembly with a failover path.
inline constexpr int kDataServers = 4;

/// Vanilla HDFS: a single NameNode with a local edit log and no reliability
/// mechanism at all — the performance baseline of Figures 5 and 6. A crash
/// simply ends the service (no MTTR row for it in Table I).
using HdfsNameNode = NameNodeBase;

class HdfsSystem {
 public:
  static constexpr SimTime kFailoverBackoff = kSecond;

  HdfsSystem(net::Network& network, int clients = 4, int data_servers = 2) {
    nn_ = std::make_unique<HdfsNameNode>(network, "hdfs-nn");
    for (int d = 0; d < data_servers; ++d) {
      dns_.push_back(std::make_unique<cluster::DataServer>(
          network, "hdfs-dn" + std::to_string(d)));
      dns_.back()->SetMetadataNodes({nn_->id()});
    }
    for (int c = 0; c < clients; ++c) {
      clients_.push_back(std::make_unique<BaselineClient>(
          network, "hdfs-client" + std::to_string(c),
          std::vector<NodeId>{nn_->id()}, kFailoverBackoff));
    }
    nn_->Boot();
    for (auto& d : dns_) d->Boot();
    for (auto& c : clients_) c->Boot();
  }

  HdfsNameNode& namenode() { return *nn_; }
  BaselineClient& client(int i) { return *clients_[i]; }
  int client_count() const { return static_cast<int>(clients_.size()); }

 private:
  std::unique_ptr<HdfsNameNode> nn_;
  std::vector<std::unique_ptr<cluster::DataServer>> dns_;
  std::vector<std::unique_ptr<BaselineClient>> clients_;
};

/// HDFS + BackupNode.
struct BackupNodeSystemOptions {
  int clients = 4;
  std::uint64_t total_blocks = 0;  ///< synthetic scale (spread over DNs)
  BaselineClientOptions client;
};

class BackupNodeSystem {
 public:
  using Options = BackupNodeSystemOptions;

  static constexpr SimTime kFailoverBackoff = 500 * kMillisecond;

  explicit BackupNodeSystem(net::Network& network, Options options = {}) {
    primary_ = std::make_unique<BackupNodePrimary>(network, "bn-primary");
    backup_ = std::make_unique<BackupNodeServer>(network, "bn-backup");
    primary_->SetBackup(backup_->id());

    const auto per_dn = options.total_blocks / kDataServers;
    for (int d = 0; d < kDataServers; ++d) {
      dns_.push_back(std::make_unique<cluster::DataServer>(
          network, "bn-dn" + std::to_string(d)));
      dns_.back()->SetMetadataNodes({primary_->id()});
      dns_.back()->SetSyntheticBlockCount(per_dn);
    }
    // Expect exactly what the data servers will report (integer division
    // above may shave a remainder off the nominal total).
    backup_->SetExpectedBlocks(per_dn * kDataServers);
    monitor_ = std::make_unique<FailureMonitor>(
        network, "bn-monitor", primary_->id(), [this] {
          backup_->TakeOver([this] {
            for (auto& dn : dns_) {
              dn->SetMetadataNodes({backup_->id()});
              dn->ReportNow();
            }
          });
        });

    for (int c = 0; c < options.clients; ++c) {
      clients_.push_back(std::make_unique<BaselineClient>(
          network, "bn-client" + std::to_string(c),
          std::vector<NodeId>{primary_->id(), backup_->id()},
          kFailoverBackoff, options.client));
    }
    primary_->Boot();
    backup_->Boot();
    monitor_->Boot();
    for (auto& d : dns_) d->Boot();
    for (auto& c : clients_) c->Boot();
  }

  void KillPrimary() { primary_->Crash(); }

  BackupNodePrimary& primary() { return *primary_; }
  BackupNodeServer& backup() { return *backup_; }
  BaselineClient& client(int i) { return *clients_[i]; }

 private:
  std::unique_ptr<BackupNodePrimary> primary_;
  std::unique_ptr<BackupNodeServer> backup_;
  std::unique_ptr<FailureMonitor> monitor_;
  std::vector<std::unique_ptr<cluster::DataServer>> dns_;
  std::vector<std::unique_ptr<BaselineClient>> clients_;
};

/// AvatarNode (kAvatar) or Hadoop HA (kHadoopHa): an active and a standby
/// SharedEditsNameNode over the deployment's log nodes.
struct SharedEditsSystemOptions {
  int clients = 4;
  BaselineClientOptions client;
};

class SharedEditsSystem {
 public:
  using Options = SharedEditsSystemOptions;

  /// The failure monitor (Hadoop HA's ZKFC) declares the active dead after
  /// a ZooKeeper-style session timeout: 5 s at a 2 s heartbeat.
  static constexpr SimTime kHeartbeat = 2 * kSecond;
  static constexpr SimTime kSessionTimeout = 5 * kSecond;

  SharedEditsSystem(net::Network& network,
                    const SharedEditsDeployment& deployment,
                    Options options = {}) {
    const std::string prefix = deployment.prefix;
    storage::DiskParams log_disk;
    log_disk.sequential_latency = deployment.log_disk_latency;
    std::vector<NodeId> log_ids;
    for (int j = 0; j < deployment.log_nodes; ++j) {
      log_nodes_.push_back(std::make_unique<storage::PoolNode>(
          network, prefix + "-log" + std::to_string(j), log_disk));
      log_ids.push_back(log_nodes_.back()->id());
    }
    active_ = std::make_unique<SharedEditsNameNode>(
        network, prefix + "-active", deployment, log_ids, /*standby=*/false);
    standby_ = std::make_unique<SharedEditsNameNode>(
        network, prefix + "-standby", deployment, log_ids, /*standby=*/true);
    for (int d = 0; d < kDataServers; ++d) {
      dns_.push_back(std::make_unique<cluster::DataServer>(
          network, prefix + "-dn" + std::to_string(d)));
      // Data nodes talk to BOTH NameNodes (the hot-standby trick).
      dns_.back()->SetMetadataNodes({active_->id(), standby_->id()});
    }
    monitor_ = std::make_unique<FailureMonitor>(
        network, prefix + "-monitor", active_->id(),
        [this] { standby_->TakeOver(); },
        FailureMonitor::Options{
            .ping_interval = kHeartbeat,
            .ping_timeout = kHeartbeat / 2,
            .misses_to_declare_dead =
                static_cast<int>(kSessionTimeout / kHeartbeat)});

    for (int c = 0; c < options.clients; ++c) {
      clients_.push_back(std::make_unique<BaselineClient>(
          network, prefix + "-client" + std::to_string(c),
          std::vector<NodeId>{active_->id(), standby_->id()},
          deployment.failover_backoff, options.client));
    }
    for (auto& n : log_nodes_) n->Boot();
    active_->Boot();
    standby_->Boot();
    monitor_->Boot();
    for (auto& d : dns_) d->Boot();
    for (auto& c : clients_) c->Boot();
  }

  void KillPrimary() { active_->Crash(); }

  SharedEditsNameNode& active() { return *active_; }
  SharedEditsNameNode& standby() { return *standby_; }
  /// The i-th node holding the shared log (the filer, or a JournalNode).
  storage::PoolNode& log_node(int i) { return *log_nodes_[i]; }
  BaselineClient& client(int i) { return *clients_[i]; }

 private:
  std::vector<std::unique_ptr<storage::PoolNode>> log_nodes_;
  std::unique_ptr<SharedEditsNameNode> active_;
  std::unique_ptr<SharedEditsNameNode> standby_;
  std::unique_ptr<FailureMonitor> monitor_;
  std::vector<std::unique_ptr<cluster::DataServer>> dns_;
  std::vector<std::unique_ptr<BaselineClient>> clients_;
};

/// Boom-FS: three Paxos RSM metadata replicas.
class BoomFsSystem {
 public:
  static constexpr int kReplicas = 3;
  static constexpr SimTime kFailoverBackoff = 1500 * kMillisecond;
  static constexpr FailureMonitor::Options kMonitor{
      .ping_interval = kSecond,
      .ping_timeout = 500 * kMillisecond,
      .misses_to_declare_dead = 5};

  explicit BoomFsSystem(net::Network& network, int clients = 4) {
    std::vector<NodeId> ids;
    for (int i = 0; i < kReplicas; ++i) {
      servers_.push_back(
          std::make_unique<BoomFsServer>(network, "boom" + std::to_string(i)));
      ids.push_back(servers_.back()->id());
    }
    for (auto& s : servers_) s->SetPeers(ids);
    servers_[0]->SetMaster(true);
    monitor_ = std::make_unique<FailureMonitor>(
        network, "boom-monitor", servers_[0]->id(),
        [this] { servers_[1]->Promote(); }, kMonitor);

    for (int c = 0; c < clients; ++c) {
      clients_.push_back(std::make_unique<BaselineClient>(
          network, "boom-client" + std::to_string(c), ids, kFailoverBackoff));
    }
    for (auto& s : servers_) s->Boot();
    monitor_->Boot();
    for (auto& c : clients_) c->Boot();
  }

  void KillMaster() { servers_[0]->Crash(); }

  BoomFsServer& server(int i) { return *servers_[i]; }
  BaselineClient& client(int i) { return *clients_[i]; }

 private:
  std::vector<std::unique_ptr<BoomFsServer>> servers_;
  std::unique_ptr<FailureMonitor> monitor_;
  std::vector<std::unique_ptr<BaselineClient>> clients_;
};

}  // namespace mams::baselines
