#include "container/runtime.hpp"

#include <utility>

namespace nestv::container {

Runtime::Runtime(vmm::Vm& vm, sim::Rng rng, BootTimingModel timing)
    : vm_(&vm), rng_(rng), timing_(timing) {}

void Runtime::create_container(
    Pod::Fragment& fragment, const std::string& name, AttachFn attach,
    std::function<void(Container&, sim::Duration)> done) {
  auto& engine = vm_->host().engine();

  auto container = std::make_unique<Container>(name);
  Container* c = container.get();
  c->set_app_core(&vm_->make_app_core(name));
  fragment.containers.push_back(std::move(container));
  c->mark_starting(engine.now());

  const auto runtime_t =
      timing_.sample(rng_, timing_.runtime_mu, timing_.runtime_sigma);
  const auto netns_t =
      timing_.sample(rng_, timing_.netns_mu, timing_.netns_sigma);
  const auto app_t = timing_.sample(rng_, timing_.app_mu, timing_.app_sigma);

  // runtime setup, then netns, then the CNI attach, then app start.
  engine.schedule_in(
      runtime_t + netns_t,
      [this, &engine, &fragment, c, app_t, attach = std::move(attach),
       done = std::move(done)]() mutable {
        attach(fragment,
               [&engine, c, app_t, done = std::move(done)](
                   AttachOutcome outcome) mutable {
                 if (!outcome.ok) {
                   c->mark_stopped();
                   done(*c, 0);
                   return;
                 }
                 engine.schedule_in(app_t, [&engine, c,
                                            done = std::move(done)] {
                   c->mark_running(engine.now());
                   done(*c, c->boot_duration());
                 });
               });
      });
}

}  // namespace nestv::container
