#include "baselines/mpisim/mpisim.h"

#include <algorithm>

namespace legate::baselines::mpisim {

MpiSim::MpiSim(sim::ProcKind kind, int nranks, const sim::PerfParams& pp)
    : machine_(kind == sim::ProcKind::GPU ? sim::Machine::gpus(nranks, pp)
                                          : sim::Machine::sockets(nranks, pp)),
      engine_(std::make_unique<sim::Engine>(machine_)),
      pp_(pp) {
  clock_.assign(static_cast<std::size_t>(machine_.num_procs()), 0.0);
}

void MpiSim::compute(int rank, double bytes, double flops, double efficiency) {
  sim::Cost c{bytes * engine_->cost_scale(), flops * engine_->cost_scale(), efficiency};
  // PETSc uses every core of the socket (no runtime-reserved cores).
  double t = engine_->cost_model().kernel_seconds(machine_.target(), c, 1.0);
  t += pp_.petsc_op_overhead;
  if (machine_.target() == sim::ProcKind::GPU) t += pp_.gpu_kernel_launch;
  double& clk = clock_[static_cast<std::size_t>(rank)];
  clk = engine_->busy_proc(rank, clk, t);
  engine_->emit(sim::Ev::Task);
}

void MpiSim::exchange(const std::map<std::pair<int, int>, double>& bytes) {
  // All messages of the phase depart based on the pre-phase rank clocks;
  // only link/NIC contention serializes them. (Chaining each copy on the
  // destination's updated clock would falsely serialize the whole scatter.)
  std::vector<double> depart = clock_;
  double phase_end = 0;
  for (auto& [pair, b] : bytes) {
    auto [src, dst] = pair;
    if (src == dst || b <= 0) continue;
    int ms = machine_.proc(src).mem;
    int md = machine_.proc(dst).mem;
    double done =
        engine_->copy(sim::Copy::Mpi, ms, md, b, depart[static_cast<std::size_t>(src)]);
    phase_end = std::max(phase_end, done);
  }
  // Neighborhood collectives complete when every participant's data landed.
  for (auto& c : clock_) c = std::max(c, phase_end);
}

void MpiSim::allreduce_scalar() {
  double start = *std::max_element(clock_.begin(), clock_.end());
  double done = engine_->allreduce(nranks(), start, /*legate_style=*/false);
  for (auto& c : clock_) c = done;
}

void MpiSim::allreduce_bytes(double bytes) {
  double start = *std::max_element(clock_.begin(), clock_.end());
  double done = engine_->allreduce_bytes(nranks(), bytes, start, false);
  for (auto& c : clock_) c = done;
}

void MpiSim::barrier() {
  double mx = *std::max_element(clock_.begin(), clock_.end());
  for (auto& c : clock_) c = mx;
}

void MpiSim::alloc(int rank, double bytes) {
  engine_->alloc_bytes(machine_.proc(rank).mem, bytes);
}

void MpiSim::free(int rank, double bytes) {
  engine_->free_bytes(machine_.proc(rank).mem, bytes);
}

double MpiSim::makespan() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

}  // namespace legate::baselines::mpisim
