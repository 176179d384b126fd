// Benchmark kernels re-expressed in the warp-level DSL (the SHOC / CUDA-SDK
// benchmarks of Table IV). Each factory returns a KernelInfo whose arrays
// carry the benchmark's *default* ("sample") placement; the registry supplies
// the paper's placement tests and the training/evaluation split.
//
// Problem sizes are scaled so one simulator run stays in the tens of
// milliseconds while keeping each kernel's memory access structure — the
// property the models actually consume — faithful to the original.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "kernel/placement.hpp"

namespace gpuhms::workloads {

using gpuhms::DataPlacement;
using gpuhms::KernelInfo;

// --- kernel factories --------------------------------------------------------
KernelInfo make_vecadd(std::int64_t n = 1 << 16);
KernelInfo make_matrixmul(int n = 96, int tile = 16);
// Untiled matrixMul (no shared-memory staging): quadratic off-chip reuse.
KernelInfo make_matrixmul_naive(int n = 64);
KernelInfo make_spmv(int rows = 1024, int avg_nnz_per_row = 48,
                     std::uint64_t seed = 7);
// Scalar CSR variant (one thread per row): divergent val/cols streams.
KernelInfo make_spmv_scalar(int rows = 1024, int avg_nnz_per_row = 24,
                            std::uint64_t seed = 7);
KernelInfo make_md(int natoms = 3072, int neighbors = 24,
                   std::uint64_t seed = 11);
KernelInfo make_convolution(int width = 256, int height = 128,
                            int radius = 8);
// Column pass of the separable convolution ("convo2" in the paper's
// Table I): vertical, width-strided source reads.
KernelInfo make_convolution_cols(int width = 256, int height = 128,
                                 int radius = 8);
KernelInfo make_transpose(int n = 192);
KernelInfo make_bfs(int nodes = 4096, int avg_degree = 8,
                    std::uint64_t seed = 13);
KernelInfo make_reduction(std::int64_t n = 1 << 16);
KernelInfo make_scan(std::int64_t n = 1 << 15);
KernelInfo make_sort(std::int64_t n = 1 << 15, std::uint64_t seed = 17);
KernelInfo make_stencil2d(int width = 256, int height = 128);
KernelInfo make_md5hash(int keys = 8192);
KernelInfo make_triad(std::int64_t n = 1 << 16);
KernelInfo make_fft(int batches = 96);
// Layer sized so the weight matrix is 24 KiB: staged into shared memory it
// halves occupancy (2 blocks/SM) rather than collapsing it — the moderate
// NN_S slowdown regime the paper's Fig. 6 exhibits.
KernelInfo make_neuralnet(int inputs = 64, int outputs = 96,
                          int batch = 256);
KernelInfo make_s3d(int cells = 8192, int species = 6);
KernelInfo make_cfd(int nelr = 4096, std::uint64_t seed = 23);
KernelInfo make_qtc(int points = 1024, int checks = 48,
                    std::uint64_t seed = 29);
// Synthetic n-array kernel whose 5^n placement space exceeds the exhaustive
// enumeration cap — the branch-and-bound search stressor (every placement is
// legal; the texture path is the designed optimum).
KernelInfo make_bnb_synth(int n_arrays = 8, int iters = 12);

// --- Table IV registry ---------------------------------------------------------
struct PlacementTest {
  std::string id;           // figure label, e.g. "NN_C"
  std::string description;  // Table IV notation, e.g. "weights(G->C)"
  DataPlacement placement;
};

struct BenchmarkCase {
  std::string name;
  KernelInfo kernel;
  DataPlacement sample;               // the default data placement
  std::vector<PlacementTest> tests;   // target placements to predict
};

// Evaluation benchmarks (Fig. 5-9): bfs, fft, neuralnet, reduction, scan,
// sort, stencil2d, md5hash, s3d.
std::vector<BenchmarkCase> evaluation_suite();

// T_overlap training benchmarks (38 placements): convolution, md, matrixMul,
// spmv, transpose, cfd, triad, qtc.
std::vector<BenchmarkCase> training_suite();

// Benchmarks used for the Table I event screening (Sec. II-B): cfd,
// convolution, md, matrixMul, spmv, transpose.
std::vector<BenchmarkCase> event_screening_suite();

// Builds only the named case of either suite; nullopt for unknown names.
std::optional<BenchmarkCase> find_benchmark(std::string_view name);

// find_benchmark that aborts on unknown names.
BenchmarkCase get_benchmark(std::string_view name);

}  // namespace gpuhms::workloads
