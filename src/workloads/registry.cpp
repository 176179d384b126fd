// Table IV registry: the benchmark suites, their sample placements, and the
// placement tests of the paper's training / evaluation split.
//
// One deviation from the table as printed: transposeNaive[odata(G->2T)]
// writes odata, and texture memory is not writable from a kernel (the paper
// presumably used surface stores); we test idata(G->2T) instead so the
// placement stays legal under the hardware constraints our validator
// enforces.
#include "workloads/workloads.hpp"

#include "common/check.hpp"

namespace gpuhms::workloads {

namespace {

struct Move {
  std::string_view array;
  MemSpace to;
};

PlacementTest make_test(const KernelInfo& k, const DataPlacement& sample,
                        std::string id, std::initializer_list<Move> moves) {
  DataPlacement p = sample;
  std::string desc;
  for (const Move& m : moves) {
    const int idx = k.array_index(m.array);
    if (!desc.empty()) desc += ", ";
    desc += std::string(m.array) + "(" +
            std::string(short_code(sample.of(idx))) + "->" +
            std::string(short_code(m.to)) + ")";
    p.set(idx, m.to);
  }
  const auto err = validate_placement(k, p, kepler_arch());
  GPUHMS_CHECK_MSG(!err.has_value(), err ? err->c_str() : "");
  return PlacementTest{std::move(id), std::move(desc), std::move(p)};
}

BenchmarkCase make_case(KernelInfo kernel) {
  BenchmarkCase c;
  c.sample = DataPlacement::defaults(kernel);
  c.name = kernel.name;
  c.kernel = std::move(kernel);
  return c;
}

using gpuhms::MemSpace;
constexpr MemSpace G = MemSpace::Global;
constexpr MemSpace S = MemSpace::Shared;
constexpr MemSpace C = MemSpace::Constant;
constexpr MemSpace T = MemSpace::Texture1D;
constexpr MemSpace T2 = MemSpace::Texture2D;

BenchmarkCase bfs_case() {
  BenchmarkCase c = make_case(make_bfs());
  c.tests.push_back(make_test(c.kernel, c.sample, "bfs_2",
                              {{"edgeArray", T}}));
  return c;
}

BenchmarkCase fft_case() {
  BenchmarkCase c = make_case(make_fft());
  c.tests.push_back(make_test(c.kernel, c.sample, "fft_1", {{"smem", G}}));
  return c;
}

BenchmarkCase neuralnet_case() {
  BenchmarkCase c = make_case(make_neuralnet());
  c.tests.push_back(make_test(c.kernel, c.sample, "NN_C", {{"weights", C}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "NN_S", {{"weights", S}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "NN_T", {{"weights", T}}));
  c.tests.push_back(
      make_test(c.kernel, c.sample, "NN_2T", {{"weights", T2}}));
  return c;
}

BenchmarkCase reduction_case() {
  BenchmarkCase c = make_case(make_reduction());
  c.tests.push_back(
      make_test(c.kernel, c.sample, "Reduction_2", {{"sdata", G}}));
  return c;
}

BenchmarkCase scan_case() {
  BenchmarkCase c = make_case(make_scan());
  c.tests.push_back(
      make_test(c.kernel, c.sample, "SCAN_2", {{"g_idata", T2}}));
  return c;
}

BenchmarkCase sort_case() {
  BenchmarkCase c = make_case(make_sort());
  c.tests.push_back(
      make_test(c.kernel, c.sample, "sort_2", {{"sBlockOffsets", G}}));
  return c;
}

BenchmarkCase stencil2d_case() {
  BenchmarkCase c = make_case(make_stencil2d());
  c.tests.push_back(
      make_test(c.kernel, c.sample, "stencil2d_2", {{"data", T}}));
  return c;
}

BenchmarkCase md5hash_case() {
  BenchmarkCase c = make_case(make_md5hash());
  c.tests.push_back(
      make_test(c.kernel, c.sample, "md5hash_2", {{"foundKey", S}}));
  return c;
}

BenchmarkCase s3d_case() {
  BenchmarkCase c = make_case(make_s3d());
  c.tests.push_back(make_test(c.kernel, c.sample, "S3D_1", {{"gpu_p", T}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "S3D_2", {{"gpu_y", T}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "S3D_3",
                              {{"gpu_p", T}, {"gpu_y", T}}));
  return c;
}

BenchmarkCase convolution_case() {
  BenchmarkCase c = make_case(make_convolution());
  c.tests.push_back(
      make_test(c.kernel, c.sample, "conv_src2T", {{"d_Src", T2}}));
  c.tests.push_back(
      make_test(c.kernel, c.sample, "conv_srcT", {{"d_Src", T}}));
  c.tests.push_back(
      make_test(c.kernel, c.sample, "conv_kernG", {{"c_Kernel", G}}));
  c.tests.push_back(
      make_test(c.kernel, c.sample, "conv_kernT", {{"c_Kernel", T}}));
  return c;
}

BenchmarkCase md_case() {
  BenchmarkCase c = make_case(make_md());
  c.tests.push_back(
      make_test(c.kernel, c.sample, "md_posG", {{"d_position", G}}));
  c.tests.push_back(
      make_test(c.kernel, c.sample, "md_neighT", {{"neighList", T}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "md_posG_neighT",
                              {{"d_position", G}, {"neighList", T}}));
  c.tests.push_back(
      make_test(c.kernel, c.sample, "md_pos2T", {{"d_position", T2}}));
  c.tests.push_back(
      make_test(c.kernel, c.sample, "md_neigh2T", {{"neighList", T2}}));
  return c;
}

BenchmarkCase matrixmul_case() {
  BenchmarkCase c = make_case(make_matrixmul());
  c.tests.push_back(make_test(c.kernel, c.sample, "mm_A2T_B2T",
                              {{"A", T2}, {"B", T2}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "mm_A2T", {{"A", T2}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "mm_AT", {{"A", T}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "mm_AT_B2T",
                              {{"A", T}, {"B", T2}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "mm_B2T", {{"B", T2}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "mm_AT_BT",
                              {{"A", T}, {"B", T}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "mm_BT", {{"B", T}}));
  return c;
}

BenchmarkCase spmv_case() {
  BenchmarkCase c = make_case(make_spmv());
  c.tests.push_back(make_test(c.kernel, c.sample, "spmv_rdS_vG",
                              {{"rowDelimiters", S}, {"d_vec", G}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "spmv_rdC_vG",
                              {{"rowDelimiters", C}, {"d_vec", G}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "spmv_rdT_vG",
                              {{"rowDelimiters", T}, {"d_vec", G}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "spmv_rdS",
                              {{"rowDelimiters", S}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "spmv_valT_vG",
                              {{"val", T}, {"d_vec", G}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "spmv_rdT_vC",
                              {{"rowDelimiters", T}, {"d_vec", C}}));
  c.tests.push_back(make_test(
      c.kernel, c.sample, "spmv_valT_colsT_rdC_vG",
      {{"val", T}, {"cols", T}, {"rowDelimiters", C}, {"d_vec", G}}));
  c.tests.push_back(make_test(c.kernel, c.sample, "spmv_valT_colsT",
                              {{"val", T}, {"cols", T}}));
  c.tests.push_back(
      make_test(c.kernel, c.sample, "spmv_vG", {{"d_vec", G}}));
  return c;
}

BenchmarkCase transpose_case() {
  BenchmarkCase c = make_case(make_transpose());
  c.tests.push_back(
      make_test(c.kernel, c.sample, "transpose_i2T", {{"idata", T2}}));
  c.tests.push_back(
      make_test(c.kernel, c.sample, "transpose_iT", {{"idata", T}}));
  return c;
}

BenchmarkCase cfd_case() {
  BenchmarkCase c = make_case(make_cfd());
  c.tests.push_back(
      make_test(c.kernel, c.sample, "cfd_varT", {{"variables", T}}));
  return c;
}

BenchmarkCase triad_case() {
  BenchmarkCase c = make_case(make_triad());
  c.tests.push_back(make_test(c.kernel, c.sample, "triad_BS", {{"B", S}}));
  return c;
}

BenchmarkCase qtc_case() {
  BenchmarkCase c = make_case(make_qtc());
  c.tests.push_back(make_test(c.kernel, c.sample, "qtc_2T",
                              {{"distance_matrix_txt", T2}}));
  return c;
}

// The Table IV cases by name, each built only when asked for: the
// evaluation suite first, then the training suite, each in table order.
struct SuiteEntry {
  std::string_view name;
  bool training;
  BenchmarkCase (*build)();
};
constexpr SuiteEntry kTableIv[] = {
    {"bfs", false, bfs_case},
    {"fft", false, fft_case},
    {"neuralnet", false, neuralnet_case},
    {"reduction", false, reduction_case},
    {"scan", false, scan_case},
    {"sort", false, sort_case},
    {"stencil2d", false, stencil2d_case},
    {"md5hash", false, md5hash_case},
    {"s3d", false, s3d_case},
    {"convolution", true, convolution_case},
    {"md", true, md_case},
    {"matrixmul", true, matrixmul_case},
    {"spmv", true, spmv_case},
    {"transpose", true, transpose_case},
    {"cfd", true, cfd_case},
    {"triad", true, triad_case},
    {"qtc", true, qtc_case},
};

std::vector<BenchmarkCase> suite(bool training) {
  std::vector<BenchmarkCase> cases;
  for (const SuiteEntry& e : kTableIv) {
    if (e.training == training) cases.push_back(e.build());
  }
  return cases;
}

}  // namespace

std::vector<BenchmarkCase> evaluation_suite() { return suite(false); }

std::vector<BenchmarkCase> training_suite() { return suite(true); }

std::vector<BenchmarkCase> event_screening_suite() {
  std::vector<BenchmarkCase> out;
  for (const SuiteEntry& e : kTableIv) {
    if (e.name == "cfd" || e.name == "convolution" || e.name == "md" ||
        e.name == "matrixmul" || e.name == "spmv" || e.name == "transpose") {
      out.push_back(e.build());
    }
  }
  // The paper's Table I screens both separable-convolution passes (convo1 =
  // rows, above; convo2 = columns, below). The column pass is not part of
  // the Table IV training/evaluation counts, so it lives only here.
  {
    BenchmarkCase c = make_case(make_convolution_cols());
    c.tests.push_back(
        make_test(c.kernel, c.sample, "convo2_src2T", {{"d_Src", T2}}));
    c.tests.push_back(
        make_test(c.kernel, c.sample, "convo2_srcT", {{"d_Src", T}}));
    c.tests.push_back(
        make_test(c.kernel, c.sample, "convo2_kernG", {{"c_Kernel", G}}));
    out.push_back(std::move(c));
  }
  return out;
}

std::optional<BenchmarkCase> find_benchmark(std::string_view name) {
  for (const SuiteEntry& e : kTableIv) {
    if (e.name == name) return e.build();
  }
  return std::nullopt;
}

BenchmarkCase get_benchmark(std::string_view name) {
  std::optional<BenchmarkCase> c = find_benchmark(name);
  GPUHMS_CHECK_MSG(c.has_value(), "unknown benchmark name");
  return std::move(*c);
}

}  // namespace gpuhms::workloads
