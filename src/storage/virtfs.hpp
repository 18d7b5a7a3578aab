// VirtFS-style shared volumes (Jujjuri et al. [20], section 4.3.1).
//
// The paper argues cross-VM pods also need shared *volumes*, and that
// VirtFS — a 9p-over-virtio para-virtualized filesystem — already solves
// it: "it allows, among other things, to mount the same file system into
// multiple guests".  This module models exactly that: a host-backed file
// store, per-VM mounts whose operations pay guest syscall + 9p round trip
// + host service costs, and write-through consistency so every mount
// observes the same versions (the property naive block sharing lacks).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_model.hpp"
#include "vmm/machine.hpp"
#include "vmm/vm.hpp"

namespace nestv::storage {

/// The host-side 9p server: authoritative file state.
class HostFileStore {
 public:
  struct FileState {
    std::uint64_t size = 0;
    std::uint64_t version = 0;  ///< bumped on every write
  };

  explicit HostFileStore(vmm::PhysicalMachine& machine);

  [[nodiscard]] bool exists(const std::string& path) const;
  [[nodiscard]] const FileState* stat(const std::string& path) const;
  [[nodiscard]] std::size_t file_count() const { return files_.size(); }
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix) const;

  /// The host-side worker serving 9p requests.
  [[nodiscard]] sim::SerialResource& server() { return *server_; }
  [[nodiscard]] vmm::PhysicalMachine& machine() { return *machine_; }

 private:
  friend class VirtfsMount;
  FileState& open_or_create(const std::string& path);

  vmm::PhysicalMachine* machine_;
  sim::SerialResource* server_;
  std::map<std::string, FileState> files_;
};

/// Timing model for 9p operations (paper-era virtio-9p magnitudes).
struct VirtfsCosts {
  sim::Duration guest_syscall = 1200;   ///< VFS entry + v9fs client
  sim::Duration transport_rtt = 14000;  ///< virtio queue round trip
  sim::Duration host_op = 4000;         ///< host VFS service per op
  double host_byte = 0.25;              ///< host copy per payload byte
};

/// One VM's mount of the shared store.
class VirtfsMount {
 public:
  VirtfsMount(HostFileStore& store, vmm::Vm& vm, VirtfsCosts costs = {});

  struct ReadResult {
    bool ok = false;
    std::uint64_t bytes = 0;
    std::uint64_t version = 0;
  };

  /// Appends `bytes` to `path` (creating it); `done` fires with the new
  /// version once the host has acknowledged (write-through).
  void write(const std::string& path, std::uint64_t bytes,
             std::function<void(std::uint64_t version)> done);

  /// Reads the whole file; `done` fires with size + version, or ok=false.
  void read(const std::string& path,
            std::function<void(ReadResult)> done);

  /// Removes the file; `done(true)` if it existed.
  void unlink(const std::string& path, std::function<void(bool)> done);

  [[nodiscard]] vmm::Vm& vm() { return *vm_; }

 private:
  /// Runs one 9p op: guest syscall -> transport -> host service -> reply.
  void op(std::uint64_t payload_bytes, std::function<void()> host_action,
          std::function<void()> reply);

  HostFileStore* store_;
  vmm::Vm* vm_;
  VirtfsCosts costs_;
};

/// A pod volume: one shared directory prefix mounted into several VMs.
class SharedVolume {
 public:
  SharedVolume(HostFileStore& store, std::string name)
      : store_(&store), name_(std::move(name)) {}

  /// Mounts the volume in `vm`; returns the mount (owned by the volume).
  VirtfsMount& mount_in(vmm::Vm& vm);

  [[nodiscard]] std::string path_of(const std::string& file) const {
    return name_ + "/" + file;
  }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  HostFileStore* store_;
  std::string name_;
  std::vector<std::unique_ptr<VirtfsMount>> mounts_;
};

}  // namespace nestv::storage
