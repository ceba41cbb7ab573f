//! `Sequential::backward_params` — the backward pass `local_train` runs —
//! against the full `Sequential::backward`, which stays as its reference:
//! same parameter-gradient bits on every zoo architecture, and the cache
//! rule that only a training forward arms a backward.

use fedmp_nn::{zoo, Conv2d, LayerNode, Linear, MaxPool2d, ReLU, Sequential};
use fedmp_tensor::{cross_entropy_loss, seeded_rng, Tensor};

fn grad_bits(model: &mut Sequential) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    model
        .for_each_param_mut(&mut |p| out.push(p.grad.data().iter().map(|v| v.to_bits()).collect()));
    out
}

#[test]
fn parameter_only_backward_leaves_the_same_grad_bits() {
    let mut rng = seeded_rng(300);
    let mlp = Sequential::new(vec![
        LayerNode::Linear(Linear::new(12, 7, &mut rng)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::Linear(Linear::new(7, 4, &mut rng)),
    ]);
    let models: [(&str, Sequential, &[usize]); 5] = [
        ("cnn_mnist", zoo::cnn_mnist(0.15, &mut rng), &[3, 1, 28, 28]),
        ("alexnet_cifar", zoo::alexnet_cifar(0.08, &mut rng), &[3, 3, 32, 32]),
        ("vgg_emnist", zoo::vgg_emnist(0.08, &mut rng), &[3, 1, 28, 28]),
        ("resnet_tiny", zoo::resnet_tiny(0.1, &mut rng), &[2, 3, 64, 64]),
        ("linear-first mlp", mlp, &[3, 12]),
    ];
    for (name, model, dims) in models {
        let x = Tensor::randn(dims, &mut rng);
        let labels: Vec<usize> = (0..dims[0]).collect();
        // Two passes each, so accumulation into a non-zero grad is covered.
        let (mut full, mut fast) = (model.clone(), model);
        for _ in 0..2 {
            let out = cross_entropy_loss(&full.forward(&x, true), &labels);
            full.backward(&out.grad_logits);
            let out = cross_entropy_loss(&fast.forward(&x, true), &labels);
            fast.backward_params(&out.grad_logits);
        }
        assert_eq!(grad_bits(&mut fast), grad_bits(&mut full), "{name}");
    }
}

#[test]
fn layer_backward_is_its_two_halves() {
    let mut rng = seeded_rng(301);
    let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
    let x = Tensor::randn(&[2, 2, 6, 6], &mut rng);
    let g = Tensor::randn(conv.forward(&x, true).dims(), &mut rng);
    let mut halves = conv.clone();
    let gx = conv.backward(&g);
    halves.backward_params(&g);
    assert_eq!(halves.backward_input(&g), gx);
    assert_eq!(halves.weight.grad, conv.weight.grad);
    assert_eq!(halves.bias.grad, conv.bias.grad);
}

/// An inference forward clears the backward cache instead of leaving a
/// stale batch behind: the second `backward` must hit the layer's
/// "backward before forward" panic.
fn backward_after_inference_forward(mut layer: LayerNode, dims: &[usize]) {
    let x = Tensor::randn(dims, &mut seeded_rng(302));
    let y = layer.forward(&x, true);
    layer.backward(&y); // armed by the training forward
    layer.forward(&x, false);
    layer.backward(&y);
}

#[test]
#[should_panic(expected = "conv backward before forward")]
fn conv_is_disarmed_by_an_inference_forward() {
    let conv = Conv2d::new(1, 2, 3, 1, 1, &mut seeded_rng(303));
    backward_after_inference_forward(LayerNode::Conv2d(conv), &[1, 1, 4, 4]);
}

#[test]
#[should_panic(expected = "linear backward before forward")]
fn linear_is_disarmed_by_an_inference_forward() {
    let linear = Linear::new(4, 2, &mut seeded_rng(304));
    backward_after_inference_forward(LayerNode::Linear(linear), &[2, 4]);
}

#[test]
#[should_panic(expected = "relu backward before forward")]
fn relu_is_disarmed_by_an_inference_forward() {
    backward_after_inference_forward(LayerNode::ReLU(ReLU::new()), &[2, 4]);
}

#[test]
#[should_panic(expected = "maxpool backward before forward")]
fn maxpool_is_disarmed_by_an_inference_forward() {
    backward_after_inference_forward(LayerNode::MaxPool2d(MaxPool2d::new(2)), &[1, 1, 4, 4]);
}
