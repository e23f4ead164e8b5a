#include "compress/checksummed_codec.h"

#include "common/framing.h"

namespace sketchml::compress {

common::Status ChecksummedCodec::EncodeImpl(const common::SparseGradient& grad,
                                            EncodedGradient* out) {
  EncodedGradient inner_msg;
  SKETCHML_RETURN_IF_ERROR(inner_->Encode(grad, &inner_msg));
  common::FrameMessage(inner_msg.bytes, &out->bytes);
  return common::Status::Ok();
}

common::Status ChecksummedCodec::DecodeImpl(const EncodedGradient& in,
                                            common::SparseGradient* out) {
  EncodedGradient inner_msg;
  SKETCHML_RETURN_IF_ERROR(common::UnframeMessage(in.bytes, &inner_msg.bytes));
  return inner_->Decode(inner_msg, out);
}

}  // namespace sketchml::compress
