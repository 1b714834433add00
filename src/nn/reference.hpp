// Retained naive reference kernels: verbatim copies of the original
// hand-rolled Dense/Conv2d forward loops that the GEMM engine replaced.
//
// They are the test oracle: tests/test_gemm.cpp property-checks the lowered
// GEMM/im2col path against them for bitwise-identical outputs over
// randomized shapes. No layer forward calls them.
#pragma once

#include "nn/tensor.hpp"

namespace dnnd::nn::reference {

/// y[i,o] = bias[o] + sum_j weight[o,j] * x[i,j]. `y` must be {N, out}.
void dense_forward(const Tensor& x, const Tensor& weight, const Tensor& bias, Tensor& y);

/// NCHW convolution, square kernel. `y` must be pre-sized {N, out_ch, oh, ow}.
void conv2d_forward(const Tensor& x, const Tensor& weight, const Tensor& bias, usize stride,
                    usize pad, Tensor& y);

}  // namespace dnnd::nn::reference
