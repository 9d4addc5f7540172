package wire

// The historical per-width names. Every value codec in this package is
// one generic implementation named XOf[T linalg.Float]; the names below
// — X for float64, X32 for float32 — are its two instantiations and
// nothing else: type aliases for the types, instantiated function
// values for the functions. No name here has a body of its own, so a
// codec fix or optimisation is written once and both widths get it.
// Code that is itself generic over the width calls the XOf forms.

// TierDelta names TierRaw for bench/adapter_engine.go:194 until ROADMAP item 1a.
const TierDelta = TierRaw

type (
	GradFrame       = GradFrameOf[float64]
	GradFrame32     = GradFrameOf[float32]
	UplinkEncoder   = UplinkEncoderOf[float64]
	UplinkEncoder32 = UplinkEncoderOf[float32]
	UplinkDecoder   = UplinkDecoderOf[float64]
	UplinkDecoder32 = UplinkDecoderOf[float32]
)

var (
	AppendF64s = AppendFloats[float64]
	AppendF32s = AppendFloats[float32]
	DecodeF64s = DecodeFloats[float64]
	DecodeF32s = DecodeFloats[float32]

	GradFrameSize     = GradFrameSizeOf[float64]
	GradFrame32Size   = GradFrameSizeOf[float32]
	AppendGradFrame   = AppendGradFrameOf[float64]
	AppendGradFrame32 = AppendGradFrameOf[float32]
	DecodeGradFrame   = DecodeGradFrameOf[float64]
	DecodeGradFrame32 = DecodeGradFrameOf[float32]

	ParamsFullSize      = ParamsFullSizeOf[float64]
	ParamsFull32Size    = ParamsFullSizeOf[float32]
	AppendParamsFull    = AppendParamsFullOf[float64]
	AppendParamsFull32  = AppendParamsFullOf[float32]
	AppendParamsDelta   = AppendParamsDeltaOf[float64]
	AppendParamsDelta32 = AppendParamsDeltaOf[float32]
	DecodeParams        = DecodeParamsOf[float64]
	DecodeParams32      = DecodeParamsOf[float32]

	UplinkRawSize    = UplinkRawSizeOf[float64]
	UplinkRaw32Size  = UplinkRawSizeOf[float32]
	UplinkSignSize   = UplinkSignSizeOf[float64]
	UplinkSign32Size = UplinkSignSizeOf[float32]
	UplinkInt8Size   = UplinkInt8SizeOf[float64]
	UplinkInt832Size = UplinkInt8SizeOf[float32]

	SignQuantizeInPlace   = SignQuantizeInPlaceOf[float64]
	SignQuantizeInPlace32 = SignQuantizeInPlaceOf[float32]
	Int8QuantizeInPlace   = Int8QuantizeInPlaceOf[float64]
	Int8QuantizeInPlace32 = Int8QuantizeInPlaceOf[float32]
)
