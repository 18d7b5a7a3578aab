#include "storage/virtfs.hpp"

namespace nestv::storage {

HostFileStore::HostFileStore(vmm::PhysicalMachine& machine)
    : machine_(&machine),
      server_(&machine.make_kernel_worker("virtfs-server")) {}

bool HostFileStore::exists(const std::string& path) const {
  return files_.count(path) > 0;
}

const HostFileStore::FileState* HostFileStore::stat(
    const std::string& path) const {
  const auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

std::vector<std::string> HostFileStore::list(
    const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, _] : files_) {
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  return out;
}

HostFileStore::FileState& HostFileStore::open_or_create(
    const std::string& path) {
  return files_[path];
}

VirtfsMount::VirtfsMount(HostFileStore& store, vmm::Vm& vm,
                         VirtfsCosts costs)
    : store_(&store), vm_(&vm), costs_(costs) {}

void VirtfsMount::op(std::uint64_t payload_bytes,
                     std::function<void()> host_action,
                     std::function<void()> reply) {
  auto& engine = vm_->host().engine();
  const auto host_work =
      costs_.host_op + static_cast<sim::Duration>(
                           costs_.host_byte *
                           static_cast<double>(payload_bytes));
  // Guest half of the syscall, then the transport, then the host service,
  // then the reply transport back into the guest.
  vm_->softirq().submit_as(
      sim::CpuCategory::kSys, costs_.guest_syscall,
      [this, &engine, host_work, host_action = std::move(host_action),
       reply = std::move(reply)]() mutable {
        engine.schedule_in(
            costs_.transport_rtt / 2,
            [this, &engine, host_work, host_action = std::move(host_action),
             reply = std::move(reply)]() mutable {
              store_->server().submit_as(
                  sim::CpuCategory::kSys, host_work,
                  [this, &engine, host_action = std::move(host_action),
                   reply = std::move(reply)]() mutable {
                    host_action();
                    engine.schedule_in(costs_.transport_rtt / 2,
                                       std::move(reply));
                  });
            });
      });
}

void VirtfsMount::write(const std::string& path, std::uint64_t bytes,
                        std::function<void(std::uint64_t)> done) {
  auto version = std::make_shared<std::uint64_t>(0);
  op(bytes,
     [this, path, bytes, version] {
       auto& f = store_->open_or_create(path);
       f.size += bytes;
       *version = ++f.version;
     },
     [version, done = std::move(done)] {
       if (done) done(*version);
     });
}

void VirtfsMount::read(const std::string& path,
                       std::function<void(ReadResult)> done) {
  auto result = std::make_shared<ReadResult>();
  // Host work scales with the current size; sample it at service time.
  op(store_->stat(path) != nullptr ? store_->stat(path)->size : 0,
     [this, path, result] {
       const auto* f = store_->stat(path);
       if (f != nullptr) {
         result->ok = true;
         result->bytes = f->size;
         result->version = f->version;
       }
     },
     [result, done = std::move(done)] {
       if (done) done(*result);
     });
}

void VirtfsMount::unlink(const std::string& path,
                         std::function<void(bool)> done) {
  auto existed = std::make_shared<bool>(false);
  op(0,
     [this, path, existed] { *existed = store_->files_.erase(path) > 0; },
     [existed, done = std::move(done)] {
       if (done) done(*existed);
     });
}

VirtfsMount& SharedVolume::mount_in(vmm::Vm& vm) {
  mounts_.push_back(std::make_unique<VirtfsMount>(*store_, vm));
  return *mounts_.back();
}

}  // namespace nestv::storage
